package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"orcf/internal/persist"
	"orcf/internal/serve"
	"orcf/internal/transport"
)

// inputs are the seed-derived inputs every instance of one run shares.
type inputs struct {
	w       workload
	seed    uint64
	trace   *fleetTrace
	sched   schedule
	absence int    // absence timeout of churning workloads (0 = none)
	dir     string // directory holding the run's state dirs
}

func newInputs(w workload, seed uint64, dir string) (*inputs, error) {
	in := &inputs{w: w, seed: seed, trace: newFleetTrace(seed, w.dims), sched: newSchedule(w, seed), dir: dir}
	if w.churn > 0 {
		gap, err := longestSilence(w, in.trace, in.sched)
		if err != nil {
			return nil, err
		}
		in.absence = gap + 2
	}
	return in, nil
}

// setUp builds one instance and runs it until the first servable forecast.
// The returned duration covers construction, connection, recovery of the
// (empty) state dir, the initial collection and the first query.
func setUp(ip *inputs, workers int, tr *tracer, name string, counts *ops) (*instance, time.Duration, error) {
	w := ip.w
	cfg, err := coreConfig(w, ip.seed, workers, ip.absence)
	if err != nil {
		return nil, 0, err
	}
	fl, err := newFleet(w, ip.trace, ip.sched)
	if err != nil {
		return nil, 0, err
	}
	stateDir := filepath.Join(ip.dir, name)
	t0 := time.Now()
	in, err := newInstance(w, cfg, fl, tr, stateDir, counts)
	if err != nil {
		return nil, 0, err
	}
	var st stepTimes
	for snap := in.sys.Snapshot(); snap == nil || !snap.Ready(); snap = in.sys.Snapshot() {
		if in.t > w.initial+w.retrainEvery {
			in.close()
			return nil, 0, fmt.Errorf("models not trained after %d steps", in.t)
		}
		if err := in.step(&st, false, nil); err != nil {
			in.close()
			return nil, 0, err
		}
	}
	if err := in.get(in.sys.Snapshot().Generation(), in.t); err != nil {
		in.close()
		return nil, 0, err
	}
	return in, time.Since(t0), nil
}

// windowResult is what one timed window measured.
type windowResult struct {
	steps int
	wall  time.Duration // loop time minus the benchmark's own checks

	fresh, retrainFresh, cached       samples
	decide, send, drain, tick, cold   samples
	alert                             samples
	sends, live, joins, evictions     int
	alertEvents                       int
	retries                           int64
	coldBytes                         int
	records, wire                     int64
	blocks                            []block
	acc                               accuracy
	prefixSends, prefixLive           int
	prefixWire                        int64
	alloc, liveHeap                   uint64
	gcs                               uint32
	trainings                         int
	trainTime                         time.Duration
	warm, full                        int
	walBytes, checkpoints, ckptErrors int64
	protocolErrors                    int64
	// Interleaved traced and untraced steps and their summed cycle times.
	tracedSteps, plainSteps int
	tracedWall, plainWall   time.Duration
	ckptTime                time.Duration
}

// block is one run of w.block consecutive timed steps, a whole number of
// retraining (and checkpoint) periods, so every block holds the same mix
// of work. End-to-end timings are computed per block and aggregated over
// blocks by blockQuantile.
type block struct {
	wall                       time.Duration
	steps                      int
	fresh, retrainFresh, cache samples
}

// blockQuantile is the q-quantile over blocks of one per-block statistic.
// The end-to-end timings take the quartile on the fast side (q=0.25 for
// latencies, 0.75 for rates): blocks differ only in how much the machine
// interfered with them, and on a shared machine slow stretches last tens
// of seconds, so the fast quartile repeats across runs where the median
// does not.
func (r *windowResult) blockQuantile(q float64, stat func(b *block) float64) float64 {
	var vals samples
	for i := range r.blocks {
		vals = append(vals, stat(&r.blocks[i]))
	}
	return vals.quantile(q)
}

// runWindow runs closed-loop steps for at least seconds, the accuracy
// prefix plus one, and minBlocks whole blocks; at most w.maxSteps.
func (in *instance) runWindow(seconds float64, minBlocks int) (*windowResult, error) {
	w := in.w
	r := &windowResult{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sm := in.srv.Metrics()
	wire0, rec0 := sm.BytesIn.Value(), sm.RecordsIn.Value()
	train0, runs0 := in.sys.TrainingTime()
	warm0, full0 := in.sys.RefitStats()
	var ps0 persist.Stats
	if in.mgr != nil {
		ps0 = in.mgr.Stats()
	}
	var check time.Duration
	start := time.Now()
	var cur block
	for i := 1; ; i++ {
		t0 := time.Now()
		var acc *accuracy
		if i <= w.prefix+1 {
			acc = &r.acc
			acc.open = i <= w.prefix
		}
		traced := in.interleave && i%3 != 0
		if in.interleave {
			in.trace(traced)
		}
		var st stepTimes
		if err := in.step(&st, true, acc); err != nil {
			return r, err
		}
		cycle := time.Since(t0) - st.check
		check += st.check
		r.steps++
		cur.steps++
		cur.wall += cycle
		switch {
		case traced:
			r.tracedSteps++
			r.tracedWall += cycle
		case in.interleave:
			r.plainSteps++
			r.plainWall += cycle
		}
		if st.retrain {
			r.retrainFresh.add(st.freshness)
			cur.retrainFresh.add(st.freshness)
		} else {
			r.fresh.add(st.freshness)
			cur.fresh.add(st.freshness)
		}
		for _, d := range st.cached {
			r.cached.add(d)
			cur.cache.add(d)
		}
		if cur.steps == w.block {
			if !cur.fresh.tailOK(0.9) || !cur.cache.tailOK(0.9) || len(cur.retrainFresh) == 0 {
				return r, fmt.Errorf("block of %d steps holds %d fresh, %d cached and %d retrain samples: too few",
					w.block, len(cur.fresh), len(cur.cache), len(cur.retrainFresh))
			}
			r.blocks = append(r.blocks, cur)
			cur = block{}
		}
		r.decide.add(st.decide)
		r.send.add(st.send)
		r.drain.add(st.drain)
		r.tick.add(st.tick)
		r.cold.add(st.cold)
		r.alert.add(st.alert)
		r.sends += st.sends
		r.live += st.live
		r.joins += st.joins
		r.evictions += st.evictions
		r.alertEvents += st.alertEvents
		r.retries += st.retries
		r.coldBytes += st.coldBytes
		if i <= w.prefix {
			r.prefixSends += st.sends
			r.prefixLive += st.live
		}
		if i == w.prefix {
			r.prefixWire = sm.BytesIn.Value() - wire0
		}
		// A partial last block counts in the window totals, not in the
		// block medians.
		enough := i > w.prefix && len(r.blocks) >= minBlocks
		if i >= w.maxSteps || (enough && time.Since(start)-check >= time.Duration(seconds*float64(time.Second))) {
			break
		}
	}
	r.wall = time.Since(start) - check
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeap = m1.HeapAlloc
	r.wire = sm.BytesIn.Value() - wire0
	r.records = sm.RecordsIn.Value() - rec0
	train1, runs1 := in.sys.TrainingTime()
	r.trainings, r.trainTime = runs1-runs0, train1-train0
	warm1, full1 := in.sys.RefitStats()
	r.warm, r.full = warm1-warm0, full1-full0
	if in.mgr != nil {
		ps1 := in.mgr.Stats()
		r.walBytes = ps1.WALBytes - ps0.WALBytes
		r.checkpoints = ps1.Checkpoints - ps0.Checkpoints
		r.ckptErrors = ps1.CheckpointErrors - ps0.CheckpointErrors
		r.ckptTime = ps1.CheckpointTime - ps0.CheckpointTime
	}
	if err := in.checkStore(); err != nil {
		return r, err
	}
	if r.protocolErrors = in.srv.ProtocolErrors(); r.protocolErrors != 0 {
		return r, checkf("%d transport protocol errors", r.protocolErrors)
	}
	if len(r.blocks) == 0 {
		return r, fmt.Errorf("window of %d steps holds no whole block of %d", r.steps, w.block)
	}
	return r, nil
}

// recovery is what the repeated recoveries of a durable run measured.
type recovery struct {
	times    samples
	replayed int
}

// finishDurable closes a durable instance the way a crash-free shutdown
// with a WAL tail leaves it: a checkpoint, then walTail more logged steps,
// then Close. It then recovers a pristine copy of the state
// dir w.recoveries times, each into a fresh StoreStepper, and checks that
// each resumes at the last logged step with a bit-identical h=1 forecast.
// It closes in whether or not it succeeds.
func (in *instance) finishDurable(ip *inputs) (*recovery, error) {
	defer in.close()
	// Step to a checkpoint boundary first, so the tail (shorter than the
	// interval) crosses none and every run replays exactly walTail steps.
	var st stepTimes
	for in.t%in.w.checkpointEvery != 0 {
		if err := in.step(&st, false, nil); err != nil {
			return nil, err
		}
	}
	if err := in.mgr.Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	for i := 0; i < in.w.walTail; i++ {
		if err := in.step(&st, false, nil); err != nil {
			return nil, err
		}
	}
	last := in.sys.Steps()
	want, err := in.sys.Snapshot().Forecast(1, 0)
	if err != nil {
		return nil, err
	}
	wantRoster := in.sys.Snapshot().Roster()
	if err := in.mgr.Close(); err != nil {
		return nil, fmt.Errorf("closing state dir: %w", err)
	}
	in.mgr = nil
	rec := &recovery{}
	for i := 0; i < in.w.recoveries; i++ {
		dir := filepath.Join(ip.dir, fmt.Sprintf("recover-%d", i))
		if err := os.CopyFS(dir, os.DirFS(in.stateDir)); err != nil {
			return nil, err
		}
		in.ops.attempted++
		d, replayed, err := recoverOnce(ip, dir, last, want, wantRoster.Members())
		if err != nil {
			in.ops.failed++
			return nil, err
		}
		rec.times.add(d)
		rec.replayed = replayed
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// recoverOnce recovers dir into a fresh StoreStepper and checks it
// resumes at step last with the h=1 forecast want and the fleet members.
// The duration covers construction and Recover: the time until the
// recovered pipeline can serve.
func recoverOnce(ip *inputs, dir string, last int, want [][][]float64, members []int) (time.Duration, int, error) {
	cfg, err := coreConfig(ip.w, ip.seed, 0, ip.absence)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err := serve.NewStoreStepper(transport.NewStore(), cfg)
	if err != nil {
		return 0, 0, err
	}
	m, err := persist.New(st.System(), cfg, persist.Options{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()
	info, err := m.Recover(st.Replay)
	if err != nil {
		return 0, 0, fmt.Errorf("recover: %w", err)
	}
	d := time.Since(t0)
	if info.Steps != last {
		return d, 0, checkf("recovered to step %d, last logged step is %d", info.Steps, last)
	}
	snap := st.System().Snapshot()
	if got := snap.Roster().Members(); !slices.Equal(got, members) {
		return d, 0, checkf("recovered fleet of %d members, want %d", len(got), len(members))
	}
	got, err := snap.Forecast(1, 0)
	if err != nil {
		return d, 0, err
	}
	if !equalForecast(got, want) {
		return d, 0, checkf("recovered h=1 forecast differs from the live one at step %d", last)
	}
	return d, info.ReplayedSteps, nil
}

// equalForecast compares forecasts bit for bit (NaN rows of warming
// members compare equal to NaN).
func equalForecast(a, b [][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for h := range a {
		if len(a[h]) != len(b[h]) {
			return false
		}
		for i := range a[h] {
			if len(a[h][i]) != len(b[h][i]) {
				return false
			}
			for r, v := range a[h][i] {
				u := b[h][i][r]
				if math.Float64bits(v) != math.Float64bits(u) && !(math.IsNaN(v) && math.IsNaN(u)) {
					return false
				}
			}
		}
	}
	return true
}
