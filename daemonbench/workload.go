package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"orcf/internal/transmit"
)

// workload is one benchmark input shape. Every field is fixed per workload;
// only the seed varies between runs.
type workload struct {
	name string
	// nodes is the pre-registered fleet size (IDs 0..nodes-1).
	nodes int
	// dims is the measurement dimensionality d, k the cluster count K.
	dims, k int
	// budget is the per-node transmission budget B of eq. (5).
	budget float64
	// zoo names the model families; empty means sample-and-hold alone.
	zoo []string
	// initial is the initial-collection length, retrainEvery the retraining
	// period and fitWindow the per-fit history cap (0 = all).
	initial, retrainEvery, fitWindow int
	// horizon is the snapshot horizon; queries ask for queryH ≤ horizon.
	horizon, queryH int
	// cached is the number of cached full-fleet queries after the one cold
	// query of every step, so the cold/cached mix is fixed.
	cached int
	// alerts adds one centroid rule and one node-scope rule.
	alerts bool
	// churn is the expected number of Poisson joins (and leaves) per step.
	churn float64
	// durable attaches a persist.Manager with background checkpoints.
	durable bool
	// checkpointEvery is the automatic checkpoint interval in steps.
	checkpointEvery int
	// walTail is how many steps are logged after the final explicit
	// checkpoint, so every recovery replays the same WAL tail.
	walTail int
	// recoveries is how many times the durable state is recovered.
	recoveries int
	// prefix is how many timed steps the accuracy metrics (forecast_rmse,
	// tx_share, wire_bytes_per_step) cover. A fixed prefix makes them
	// depend on the seed alone, not on how many steps fit in the window.
	prefix int
	// block is the number of steps per timing block (see runWindow), a
	// multiple of retrainEvery (and checkpointEvery); it holds at least 100
	// non-retrain steps and 100 cached queries.
	block int
	// maxSteps caps the timed window; it sizes the churn schedule.
	maxSteps int
}

// workloads are the benchmark's inputs. Each stresses a different layer
// while bypassing another (see README.md for the metric → layer map).
var workloads = []workload{
	{
		// Transport volume, per-node bookkeeping, clustering, per-node
		// reconstruction and JSON encoding; training and persistence idle.
		name: "fleet-10k", nodes: 10000, dims: 2, k: 3, budget: 0.3,
		initial: 16, retrainEvery: 16, horizon: 8, queryH: 4, cached: 1,
		alerts: true, prefix: 96, block: 112, maxSteps: 4000,
	},
	{
		// Model fits and allocation: five families retrained every 32 steps.
		name: "zoo-retrain", nodes: 512, dims: 2, k: 3, budget: 0.3,
		zoo:     []string{"sample-and-hold", "ses", "holt", "ar", "arima"},
		initial: 96, retrainEvery: 32, fitWindow: 96, horizon: 8, queryH: 4,
		cached: 2, prefix: 512, block: 384, maxSteps: 20000,
	},
	{
		// Elastic membership with durable state: WAL, background
		// checkpoints, full-refit clustering, and recovery.
		name: "churn-durable", nodes: 2000, dims: 2, k: 3, budget: 0.3,
		initial: 32, retrainEvery: 16, horizon: 8, queryH: 4, cached: 2,
		churn: 1, durable: true, checkpointEvery: 64, walTail: 24,
		recoveries: 5, prefix: 512, block: 320, maxSteps: 6000,
	},
}

// lastStep is the last step a run can reach: set-up, the window, and the
// durable shutdown's stepping to a checkpoint plus its WAL tail.
func (w workload) lastStep() int {
	return w.initial + w.maxSteps + w.checkpointEvery + w.walTail
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// group is one latent utilization pattern; nodes of a group move together,
// which is what makes per-cluster forecasting (eq. 12) pay off.
type group struct {
	base, amp [maxDims]float64
	period    float64
	phase     float64
}

const (
	maxDims = 4
	groups  = 12
	noise   = 0.03
)

// fleetTrace is the deterministic utilization trace of a seed: value(n, t, r)
// is a pure function, so any step of any node can be regenerated without
// storing the trace.
type fleetTrace struct {
	seed   uint64
	dims   int
	groups [groups]group
}

func newFleetTrace(seed uint64, dims int) *fleetTrace {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	ft := &fleetTrace{seed: seed, dims: dims}
	// Levels, swings and periods are the same for every seed, so metrics
	// that depend on how hard the trace is to follow (forecast_rmse,
	// tx_share) stay comparable across seeds; the seed draws the phases,
	// which node follows which group, and the noise.
	for g := range ft.groups {
		gr := &ft.groups[g]
		for r := 0; r < dims; r++ {
			gr.base[r] = 0.3 + 0.4*float64((g+2*r)%groups)/(groups-1)
			gr.amp[r] = 0.08 + 0.12*float64((g+r)%groups)/(groups-1)
		}
		gr.period = 40 + 8*float64(g)
		gr.phase = 2 * math.Pi * rng.Float64()
	}
	return ft
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// value is node n's utilization of resource r at step t, in [0, 1].
func (ft *fleetTrace) value(n, t, r int) float64 {
	h := mix(ft.seed ^ uint64(n)*0x100000001b3)
	gr := &ft.groups[h%groups]
	jitter := 0.3 * unit(mix(h))
	v := gr.base[r] + gr.amp[r]*math.Sin(2*math.Pi*float64(t)/gr.period+gr.phase+jitter+0.9*float64(r))
	// Approximately Gaussian noise from three uniforms of one hash chain.
	u := mix(h ^ uint64(t)<<20 ^ uint64(r)<<56)
	e := unit(u) + unit(mix(u)) + unit(mix(u+1)) - 1.5
	v += 2 * noise * e
	return math.Min(1, math.Max(0, v))
}

// schedule holds every node's lifespan: node n is a fleet member at steps
// [birth[n], death[n]). Joiners take fresh IDs, so no ID ever rejoins.
type schedule struct {
	birth, death []int
}

func newSchedule(w workload, seed uint64) schedule {
	end := w.lastStep()
	s := schedule{birth: make([]int, w.nodes), death: make([]int, w.nodes)}
	for n := range s.birth {
		s.birth[n], s.death[n] = 1, math.MaxInt
	}
	if w.churn == 0 {
		return s
	}
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	active := make([]int, w.nodes)
	for n := range active {
		active[n] = n
	}
	// Churn starts after the initial collection, so set-up always trains on
	// the same fleet.
	for t := w.initial + 1; t <= end; t++ {
		for j := poisson(rng, w.churn); j > 0; j-- {
			s.birth = append(s.birth, t)
			s.death = append(s.death, math.MaxInt)
			active = append(active, len(s.birth)-1)
		}
		for l := poisson(rng, w.churn); l > 0 && len(active) > w.k; l-- {
			pick := rng.IntN(len(active))
			s.death[active[pick]] = t
			active[pick] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	return s
}

// poisson draws from Poisson(lambda) by Knuth's method (small lambda only).
func poisson(rng *rand.Rand, lambda float64) int {
	limit := math.Exp(-lambda)
	n, p := 0, rng.Float64()
	for p >= limit {
		n++
		p *= rng.Float64()
	}
	return n
}

// fleet is the simulated node side: every node's adaptive policy (§V-A)
// deciding over the trace, plus the serial expectation of what the central
// store must hold after delivery.
type fleet struct {
	trace    *fleetTrace
	sched    schedule
	dims     int
	policies []*transmit.Adaptive
	stored   [][]float64 // last transmitted values per node (the policy's z)
	sends    []int       // accepted sends per node
	lastSend []int       // step of the newest send per node

	// Per-step output of decide.
	outNodes []int
	outVals  []float64
	live     int
}

func newFleet(w workload, trace *fleetTrace, sched schedule) (*fleet, error) {
	n := len(sched.birth)
	f := &fleet{
		trace: trace, sched: sched, dims: w.dims,
		policies: make([]*transmit.Adaptive, n),
		stored:   make([][]float64, n),
		sends:    make([]int, n),
		lastSend: make([]int, n),
	}
	for i := range f.policies {
		p, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: w.budget})
		if err != nil {
			return nil, err
		}
		f.policies[i] = p
	}
	return f, nil
}

// decide runs every live node's policy for step t and stages the
// measurements that survive in outNodes/outVals.
func (f *fleet) decide(t int) {
	f.outNodes = f.outNodes[:0]
	f.outVals = f.outVals[:0]
	f.live = 0
	x := make([]float64, f.dims)
	for n := range f.policies {
		if t < f.sched.birth[n] || t >= f.sched.death[n] {
			continue
		}
		f.live++
		for r := range x {
			x[r] = f.trace.value(n, t, r)
		}
		if !f.policies[n].Decide(t, x, f.stored[n]) {
			continue
		}
		if f.stored[n] == nil {
			f.stored[n] = make([]float64, f.dims)
		}
		copy(f.stored[n], x)
		f.sends[n]++
		f.lastSend[n] = t
		f.outNodes = append(f.outNodes, n)
		f.outVals = append(f.outVals, x...)
	}
}

// alive reports whether node n is a fleet member at step t.
func (f *fleet) alive(n, t int) bool {
	return n < len(f.sched.birth) && t >= f.sched.birth[n] && t < f.sched.death[n]
}

// longestSilence replays the whole schedule through fresh policies and
// returns the longest run of consecutive silent steps any live node shows.
// The churn workload sets its absence timeout above it, so only nodes that
// left are ever evicted.
func longestSilence(w workload, trace *fleetTrace, sched schedule) (int, error) {
	f, err := newFleet(w, trace, sched)
	if err != nil {
		return 0, err
	}
	end := w.lastStep()
	longest := 0
	for t := 1; t <= end; t++ {
		f.decide(t)
		for n := range f.policies {
			if f.alive(n, t) && f.lastSend[n] > 0 && t-f.lastSend[n] > longest {
				longest = t - f.lastSend[n]
			}
		}
	}
	return longest, nil
}
