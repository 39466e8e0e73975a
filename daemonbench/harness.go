package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"orcf/internal/alert"
	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/persist"
	"orcf/internal/serve"
	"orcf/internal/transport"
)

// Span names; README.md's metric map cites them.
const (
	spanStep   = "step"
	spanDecide = "transmit.decide"
	spanSend   = "transport.send"
	spanDrain  = "transport.drain"
	spanTick   = "serve.tick"
	spanWAL    = "persist.wal_append"
	spanAlert  = "alert.evaluate"
	spanCold   = "serve.cold_query"
	spanCached = "serve.cached_query"
	spanCheck  = "bench.check"
)

const (
	drainTimeout   = 30 * time.Second
	queryTimeout   = 30 * time.Second
	backlogBackoff = 50 * time.Microsecond
)

// errCheck marks a failed correctness gate, as opposed to an operational
// error of a layer.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}

// ops counts operations against attempts for ok_ops_share: sends, ticks,
// queries and recoveries. Backpressure retries are not failures.
type ops struct {
	attempted, failed int64
}

// instance is one complete daemon path in this process: the simulated
// fleet, one mux v2 connection into a loopback transport.Server, the
// StoreStepper driving core.System, an optional persist.Manager and
// alert.Engine, and the serve.Server behind one keep-alive loopback HTTP
// connection. All calls come from one goroutine, one step in flight.
type instance struct {
	w      workload
	cfg    core.Config
	ops    *ops
	spans  *tracer // the recorder of a traced instance, nil otherwise
	tracer *tracer // spans while recording, nil while not

	// interleave makes runWindow record spans on two steps out of three,
	// so traced and untraced steps share the instance and the machine's
	// state; the untraced ones measure the tracing overhead.
	interleave bool

	fleet   *fleet
	store   *transport.Store
	srv     *transport.Server
	client  *transport.BatchClient
	stepper *serve.StoreStepper
	sys     *core.System
	mgr     *persist.Manager
	engine  *alert.Engine
	query   *serve.Server

	httpSrv  *http.Server
	httpDone chan error
	httpc    *http.Client
	url      string
	body     bytes.Buffer

	delivered atomic.Int64
	target    atomic.Int64
	arrivedCh chan struct{}

	phases   *phaseSpans
	stateDir string
	t        int // generator step last run
}

// timedLog wraps the persist.Manager as the stepper's serve.StepLog, so the
// WAL append shows as its own span inside the tick.
type timedLog struct{ in *instance }

// LogStep implements serve.StepLog.
func (l timedLog) LogStep(step int, roster *core.Roster, x [][]float64, arrived []bool) error {
	parent := -1
	if l.in.phases != nil {
		parent = l.in.phases.parent
	}
	s := l.in.tracer.begin(step, spanWAL, parent)
	err := l.in.mgr.LogStep(step, roster, x, arrived)
	l.in.tracer.end(s)
	return err
}

// coreConfig is the pipeline configuration of a workload.
func coreConfig(w workload, seed uint64, workers, absence int) (core.Config, error) {
	cfg := core.Config{
		Nodes:             w.nodes,
		AbsenceTimeout:    absence,
		Resources:         w.dims,
		K:                 w.k,
		InitialCollection: w.initial,
		RetrainEvery:      w.retrainEvery,
		FitWindow:         w.fitWindow,
		Seed:              seed,
		Workers:           workers,
		SnapshotHorizon:   w.horizon,
		SnapshotKeep:      4,
		IncrementalRefit:  true,
	}
	if len(w.zoo) > 0 {
		zoo, err := forecast.Zoo(w.zoo...)
		if err != nil {
			return cfg, err
		}
		cfg.Zoo = zoo
	}
	return cfg, nil
}

// alertRules is one centroid rule and one node-scope rule, both at the
// query horizon.
func alertRules(h int) *alert.RuleSet {
	rules := []alert.Rule{
		{Name: "cluster-hot", Kind: alert.KindThreshold, Scope: alert.ScopeCluster,
			Cluster: -1, Horizon: h, Above: true, Threshold: 0.7},
		{Name: "node-hot", Kind: alert.KindThreshold, Scope: alert.ScopeNode,
			Horizon: h, Above: true, Threshold: 0.8},
	}
	for i := range rules {
		rules[i].Normalize()
	}
	return &alert.RuleSet{StepsPerHour: 1, Rules: rules}
}

// newInstance builds and connects every layer around fl. stateDir is used
// by durable workloads only.
func newInstance(w workload, cfg core.Config, fl *fleet, tr *tracer, stateDir string, counts *ops) (in *instance, err error) {
	in = &instance{w: w, cfg: cfg, ops: counts, spans: tr, tracer: tr, fleet: fl, stateDir: stateDir,
		arrivedCh: make(chan struct{}, 1)}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if tr != nil {
		in.phases = &phaseSpans{tr: tr, parent: -1}
		in.cfg.PhaseObserver = in.phases
	}

	in.store = transport.NewStore()
	in.srv, err = transport.NewServer(in.store, func(transport.Measurement) {
		if in.delivered.Add(1) == in.target.Load() {
			select {
			case in.arrivedCh <- struct{}{}:
			default:
			}
		}
	})
	if err != nil {
		return in, err
	}
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		return in, err
	}
	// A linger far beyond any run cuts batches by size and by the explicit
	// end-of-step flush only, so framing does not depend on timing.
	in.client, err = transport.DialBatch(addr, 0, transport.BatchOptions{
		Linger: time.Hour, MaxPending: 8192, Mux: true,
	})
	if err != nil {
		return in, err
	}

	if in.stepper, err = serve.NewStoreStepper(in.store, in.cfg); err != nil {
		return in, err
	}
	in.sys = in.stepper.System()
	if w.durable {
		in.mgr, err = persist.New(in.sys, in.cfg, persist.Options{
			Dir: stateDir, CheckpointEvery: w.checkpointEvery,
		})
		if err != nil {
			return in, err
		}
		if _, err = in.mgr.Recover(in.stepper.Replay); err != nil {
			return in, err
		}
		in.stepper.SetLog(timedLog{in})
	}
	if w.alerts {
		in.engine, err = alert.New(alert.Config{
			Rules: alertRules(w.queryH), Workers: cfg.Workers, MaxHorizon: w.horizon,
		})
		if err != nil {
			return in, err
		}
	}
	in.query, err = serve.New(serve.Config{Source: in.sys, Workers: cfg.Workers, Alerts: in.engine})
	if err != nil {
		return in, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return in, err
	}
	in.httpSrv = &http.Server{Handler: in.query}
	in.httpDone = make(chan error, 1)
	go func() { in.httpDone <- in.httpSrv.Serve(ln) }()
	in.httpc = &http.Client{
		Timeout: queryTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
	in.url = "http://" + ln.Addr().String() + "/v1/forecast?h=" + strconv.Itoa(w.queryH)
	return in, nil
}

// trace turns span recording on or off for the following steps.
func (in *instance) trace(on bool) {
	in.tracer = nil
	if on {
		in.tracer = in.spans
	}
	if in.phases != nil {
		in.phases.tr = in.tracer
	}
}

// close stops every layer and waits for their goroutines.
func (in *instance) close() {
	if in.client != nil {
		_ = in.client.Close() // every step was flushed; nothing can be lost
	}
	if in.srv != nil {
		_ = in.srv.Close()
	}
	if in.httpc != nil {
		in.httpc.CloseIdleConnections()
	}
	if in.httpSrv != nil {
		_ = in.httpSrv.Shutdown(context.Background())
		<-in.httpDone
	}
	if in.mgr != nil {
		_ = in.mgr.Close() // records were flushed per append; Close only releases
	}
}

// stepTimes is what one closed-loop step measured.
type stepTimes struct {
	decide, send, drain, tick, alert, cold time.Duration
	cached                                 []time.Duration
	freshness                              time.Duration
	check                                  time.Duration
	retrain                                bool
	sends, live                            int
	joins, evictions                       int
	alertEvents                            int
	retries                                int64
	coldBytes                              int
}

// accuracy scores served h=1 forecasts against the next realized value over
// the window's prefix. Sums run in response order, so they are bit-for-bit
// repeatable for a seed.
type accuracy struct {
	nodes []int     // node IDs of the pending forecasts
	vals  []float64 // their h=1 forecasts, dims per node
	step  int       // step the pending forecasts were made at
	open  bool      // keep this step's forecasts for scoring at the next
	sumSq float64
	n     int
}

// score adds the pending forecasts' errors against the trace at step t.
func (a *accuracy) score(fl *fleet, t int) {
	if a.step != t-1 {
		return
	}
	d := fl.dims
	for i, n := range a.nodes {
		if !fl.alive(n, t) {
			continue
		}
		for r := 0; r < d; r++ {
			e := a.vals[i*d+r] - fl.trace.value(n, t, r)
			a.sumSq += e * e
			a.n++
		}
	}
}

// keep takes the h=1 forecasts of a cold response as the pending set.
func (a *accuracy) keep(body []byte, dims int) error {
	var err error
	if a.step, a.nodes, a.vals, err = parseForecast(body, dims, a.nodes[:0], a.vals[:0]); err != nil {
		return checkf("forecast response: %v", err)
	}
	return nil
}

func (a *accuracy) rmse() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(a.sumSq / float64(a.n))
}

// parseForecast reads the step, the node IDs and the h=1 rows of a
// /v1/forecast response, appending to nodes and vals. It scans the layout
// serve.ForecastResponse encodes to rather than decoding the whole body,
// which would cost more than the query itself at fleet scale.
func parseForecast(b []byte, dims int, nodes []int, vals []float64) (int, []int, []float64, error) {
	_, step, ok := parseHead(b)
	if !ok {
		return 0, nil, nil, errors.New("no generation/step header")
	}
	if i := bytes.Index(b, []byte(`"nodes":[`)); i >= 0 {
		rest := b[i+len(`"nodes":[`):]
		for len(rest) > 0 && rest[0] != ']' {
			j := bytes.IndexAny(rest, ",]")
			if j < 0 {
				return 0, nil, nil, errors.New("unterminated nodes list")
			}
			n, err := strconv.Atoi(string(rest[:j]))
			if err != nil {
				return 0, nil, nil, err
			}
			nodes = append(nodes, n)
			if rest = rest[j:]; rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	i := bytes.Index(b, []byte(`"forecast":[[`))
	if i < 0 {
		return 0, nil, nil, errors.New("no forecast")
	}
	rest := b[i+len(`"forecast":[[`):]
	for e := range nodes {
		if len(rest) == 0 || rest[0] != '[' {
			return 0, nil, nil, fmt.Errorf("h=1 row %d of %d missing", e, len(nodes))
		}
		rest = rest[1:]
		for r := 0; r < dims; r++ {
			j := bytes.IndexAny(rest, ",]")
			if j < 0 {
				return 0, nil, nil, errors.New("unterminated row")
			}
			v, err := strconv.ParseFloat(string(rest[:j]), 64)
			if err != nil {
				return 0, nil, nil, err
			}
			vals = append(vals, v)
			if (r < dims-1) != (rest[j] == ',') {
				return 0, nil, nil, fmt.Errorf("row %d does not hold %d values", e, dims)
			}
			rest = rest[j+1:]
		}
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	if len(rest) == 0 || rest[0] != ']' {
		return 0, nil, nil, fmt.Errorf("more h=1 rows than %d nodes", len(nodes))
	}
	return step, nodes, vals, nil
}

// parseHead reads the generation and step that open a forecast response
// without decoding the whole body.
func parseHead(b []byte) (gen uint64, step int, ok bool) {
	const genKey, stepKey = `{"generation":`, `,"step":`
	if !bytes.HasPrefix(b, []byte(genKey)) {
		return 0, 0, false
	}
	b = b[len(genKey):]
	i := bytes.IndexByte(b, ',')
	if i < 0 {
		return 0, 0, false
	}
	gen, err := strconv.ParseUint(string(b[:i]), 10, 64)
	if err != nil || !bytes.HasPrefix(b[i:], []byte(stepKey)) {
		return 0, 0, false
	}
	b = b[i+len(stepKey):]
	j := bytes.IndexByte(b, ',')
	if j < 0 {
		return 0, 0, false
	}
	step, err = strconv.Atoi(string(b[:j]))
	return gen, step, err == nil
}

// get issues one forecast query and checks it answers 200 at the expected
// generation and step.
func (in *instance) get(gen uint64, step int) error {
	in.ops.attempted++
	resp, err := in.httpc.Get(in.url)
	if err != nil {
		in.ops.failed++
		return fmt.Errorf("forecast query: %w", err)
	}
	in.body.Reset()
	_, err = in.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		in.ops.failed++
		return fmt.Errorf("reading forecast response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		in.ops.failed++
		return checkf("forecast query answered %d: %.200s", resp.StatusCode, in.body.Bytes())
	}
	if g, s, ok := parseHead(in.body.Bytes()); !ok || g != gen || s != step {
		in.ops.failed++
		return checkf("forecast response at generation %d step %d, want %d and %d", g, s, gen, step)
	}
	return nil
}

// step runs one closed-loop cycle: the fleet decides, the survivors are
// sent and flushed, the loop waits until the store holds every record,
// ticks the stepper, evaluates alerts, and (with query set) issues the cold
// query and the cached ones. acc, when non-nil, scores and keeps the
// served forecasts.
func (in *instance) step(st *stepTimes, query bool, acc *accuracy) error {
	in.t++
	t := in.t
	tr := in.tracer
	root := tr.begin(t, spanStep, -1)
	defer tr.end(root)

	s := tr.begin(t, spanDecide, root)
	t0 := time.Now()
	in.fleet.decide(t)
	t1 := time.Now()
	tr.end(s)
	st.decide = t1.Sub(t0)
	st.sends, st.live = len(in.fleet.outNodes), in.fleet.live

	s = tr.begin(t, spanSend, root)
	in.target.Add(int64(st.sends))
	d := in.w.dims
	for i, n := range in.fleet.outNodes {
		in.ops.attempted++
		for {
			err := in.client.SendNode(n, t, in.fleet.outVals[i*d:(i+1)*d])
			if err == nil {
				break
			}
			if !errors.Is(err, transport.ErrBacklogged) {
				in.ops.failed++
				return fmt.Errorf("send node %d step %d: %w", n, t, err)
			}
			st.retries++
			time.Sleep(backlogBackoff)
		}
	}
	if err := in.client.Flush(); err != nil {
		return fmt.Errorf("flush step %d: %w", t, err)
	}
	tFlush := time.Now()
	tr.end(s)
	st.send = tFlush.Sub(t1)

	s = tr.begin(t, spanDrain, root)
	// The signal of an earlier step may still be pending: re-check the count
	// after every wake-up.
	deadline := time.After(drainTimeout)
	for in.delivered.Load() < in.target.Load() {
		select {
		case <-in.arrivedCh:
		case <-deadline:
			return checkf("step %d: store holds %d of %d records after %s",
				t, in.delivered.Load(), in.target.Load(), drainTimeout)
		}
	}
	if got, want := in.delivered.Load(), in.target.Load(); got != want {
		return checkf("step %d: store received %d records, generator sent %d", t, got, want)
	}
	t2 := time.Now()
	tr.end(s)
	st.drain = t2.Sub(tFlush)

	s = tr.begin(t, spanTick, root)
	if in.phases != nil {
		in.phases.trace, in.phases.parent, in.phases.lastEnd = t, s, t2
	}
	_, runs0 := in.sys.TrainingTime()
	live0 := in.sys.LiveNodes()
	in.ops.attempted++
	res, ok, err := in.stepper.Tick()
	t3 := time.Now()
	tr.end(s)
	st.tick = t3.Sub(t2)
	if err != nil || !ok {
		in.ops.failed++
		return fmt.Errorf("tick %d: stepped=%v: %v", t, ok, err)
	}
	if res.T != t {
		return checkf("tick stepped to %d, generator is at %d", res.T, t)
	}
	_, runs1 := in.sys.TrainingTime()
	st.retrain = runs1 > runs0
	st.evictions = len(res.Evicted)
	st.joins = in.sys.LiveNodes() - live0 + st.evictions
	for _, id := range res.Evicted {
		if in.fleet.alive(id, t) {
			return checkf("step %d: live node %d evicted", t, id)
		}
	}
	snap := in.sys.Snapshot()

	if in.engine != nil {
		s = tr.begin(t, spanAlert, root)
		ta := time.Now()
		ev, err := in.engine.Evaluate(snap)
		st.alert = time.Since(ta)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("alert evaluation at step %d: %w", t, err)
		}
		st.alertEvents = len(ev)
	}
	if !query {
		return nil
	}

	s = tr.begin(t, spanCold, root)
	tc := time.Now()
	if err := in.get(snap.Generation(), t); err != nil {
		return err
	}
	t4 := time.Now()
	tr.end(s)
	st.cold = t4.Sub(tc)
	st.freshness = t4.Sub(tFlush)
	st.coldBytes = in.body.Len()

	if acc != nil {
		s = tr.begin(t, spanCheck, root)
		acc.score(in.fleet, t)
		if acc.open {
			if err := acc.keep(in.body.Bytes(), d); err != nil {
				return err
			}
		}
		tr.end(s)
		st.check = time.Since(t4)
	}

	st.cached = st.cached[:0]
	for i := 0; i < in.w.cached; i++ {
		s = tr.begin(t, spanCached, root)
		tq := time.Now()
		if err := in.get(snap.Generation(), t); err != nil {
			return err
		}
		st.cached = append(st.cached, time.Since(tq))
		tr.end(s)
	}
	return nil
}

// checkStore compares the store with the fleet's serial expectation, bit
// for bit: every member holds exactly its sent count, its newest step and
// its newest values; nodes that never sent or were evicted hold nothing.
func (in *instance) checkStore() error {
	stats := in.store.Stats()
	for n, sent := range in.fleet.sends {
		st, held := stats[n]
		if sent == 0 || !in.sys.HasNode(n) {
			if held {
				return checkf("store holds node %d, which never sent or was evicted", n)
			}
			continue
		}
		if !held {
			return checkf("store lost node %d (%d sends)", n, sent)
		}
		if st.Updates != sent || st.Latest.Step != in.fleet.lastSend[n] {
			return checkf("node %d: store has %d updates up to step %d, fleet sent %d up to step %d",
				n, st.Updates, st.Latest.Step, sent, in.fleet.lastSend[n])
		}
		for r, v := range in.fleet.stored[n] {
			if math.Float64bits(st.Latest.Values[r]) != math.Float64bits(v) {
				return checkf("node %d resource %d: store %v, fleet sent %v", n, r, st.Latest.Values[r], v)
			}
		}
	}
	for n := range stats {
		if n < 0 || n >= len(in.fleet.sends) {
			return checkf("store holds unknown node %d", n)
		}
	}
	return nil
}
