// Command daemonbench measures the collector daemon path end to end and
// layer by layer, in one process and closed loop with one step in flight:
// a seed-driven fleet runs every node's adaptive transmission policy and
// sends the survivors over one mux v2 connection into a loopback
// transport.Server; the loop waits until the store holds every record,
// ticks serve.StoreStepper (core.System.Step, WAL append, snapshot
// publication), evaluates alerts, and queries /v1/forecast over one
// keep-alive loopback HTTP connection: one cold query per generation, then
// a fixed number of cached ones.
//
// Usage:
//
//	daemonbench --workload fleet-10k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// a window that records spans on two steps out of three (written under
// .bench_build/traces) and a single-threaded reference window, and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed
// correctness gate prints correct=false and exits 1. README.md maps every
// metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times an end-to-end run sets the pipeline up;
// setup_s is their median.
const setupReps = 9

// e2eBlocks is the fewest timing blocks an end-to-end window holds.
const e2eBlocks = 3

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: fleet-10k, zoo-retrain or churn-durable")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "timed window length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "daemonbench:", err, "(need --workload, --seconds > 0, --trace 0|1)")
		return 2
	}
	fmt.Printf("daemonbench: workload %s seed %d seconds %g trace %d | %s GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0))

	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	counts := &ops{}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = perLayer(w, *seed, *seconds, dir, filepath.Join(buildDir, "traces"), counts)
	} else {
		metrics, err = endToEnd(w, *seed, *seconds, dir, counts)
	}
	res := result{Correct: err == nil, Attempted: counts.attempted, Failed: counts.failed, Metrics: metrics}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		if res.Failed == 0 && errors.Is(err, errCheck) {
			res.Failed = 1
		}
		res.Metrics = map[string]metric{}
	}
	if *trace == 0 && res.Attempted > 0 {
		res.Metrics["ok_ops_share"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "share"}
	}
	printMetrics(res.Metrics)
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", jerr)
		return 1
	}
	fmt.Println(string(out))
	if err != nil {
		return 1
	}
	return 0
}

// endToEnd sets the pipeline up setupReps times, keeps the last instance,
// runs the timed window on it and (for durable workloads) the recoveries.
func endToEnd(w workload, seed uint64, seconds float64, dir string, counts *ops) (map[string]metric, error) {
	ip, err := newInputs(w, seed, dir)
	if err != nil {
		return nil, err
	}
	var setups samples
	var in *instance
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		var d time.Duration
		in, d, err = setUp(ip, 0, nil, fmt.Sprintf("setup-%d", i), counts)
		if err != nil {
			return nil, err
		}
		setups.add(d)
	}
	r, err := in.runWindow(seconds, e2eBlocks)
	if err == nil && w.durable {
		_, err = in.finishDurable(ip)
	} else {
		in.close()
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("daemonbench: %d timed steps in %d blocks, %d fresh / %d retrain / %d cached samples, set-ups %v ms\n",
		r.steps, len(r.blocks), len(r.fresh), len(r.retrainFresh), len(r.cached), setups)
	return map[string]metric{
		"setup_s": {setups.median() / 1000, "s"},
		"steps_per_s": {r.blockQuantile(0.75, func(b *block) float64 {
			return float64(b.steps) / b.wall.Seconds()
		}), "1/s"},
		"freshness_p50_ms":         {r.blockQuantile(0.25, func(b *block) float64 { return b.fresh.median() }), "ms"},
		"retrain_freshness_p50_ms": {r.blockQuantile(0.25, func(b *block) float64 { return b.retrainFresh.median() }), "ms"},
		"query_p50_ms":             {r.blockQuantile(0.25, func(b *block) float64 { return b.cache.median() }), "ms"},
		"forecast_rmse":            {r.acc.rmse(), "1"},
		"tx_share":                 {float64(r.prefixSends) / float64(r.prefixLive), "share"},
		"wire_bytes_per_step":      {float64(r.prefixWire) / float64(w.prefix), "B"},
		"live_heap_mb":             {float64(r.liveHeap) / (1 << 20), "MiB"},
	}, nil
}

// perLayer runs two windows: one of 2/3 of seconds that records spans on
// two steps out of three, and one of 1/3 as a single-threaded reference
// (Workers=1, GOMAXPROCS=1). Per-layer metrics come from the first
// window; span-based ones from its traced steps, the tracing overhead from
// comparing them with its untraced steps. The reference reading is
// reported but not gated. The spans are written to spanDir.
func perLayer(w workload, seed uint64, seconds float64, dir, spanDir string, counts *ops) (map[string]metric, error) {
	ip, err := newInputs(w, seed, dir)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	in, _, err := setUp(ip, 0, tr, "traced", counts)
	if err != nil {
		return nil, err
	}
	*tr = *newTracer() // drop the set-up spans
	in.interleave = true
	r, err := in.runWindow(seconds*2/3, 1)
	in.trace(false) // the WAL tail and recoveries are not part of the window
	var rec *recovery
	if err == nil && w.durable {
		rec, err = in.finishDurable(ip)
	} else {
		in.close()
	}
	if err != nil {
		return nil, err
	}
	qs := in.query.Stats()

	prev := runtime.GOMAXPROCS(1)
	ref, _, err := setUp(ip, 1, nil, "single", counts)
	var rr *windowResult
	if err == nil {
		rr, err = ref.runWindow(seconds/3, 1)
		ref.close()
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("daemonbench: %d spans over %d traced steps written to %s\n", len(tr.spans), r.tracedSteps, spanFile)
	tr.printTable(os.Stdout, r.tracedSteps)

	steps := float64(r.steps)
	traced := float64(r.tracedSteps)
	self := tr.selfTimes()
	spanMs := func(name string) float64 {
		if lt := self[name]; lt != nil {
			return ms(lt.total) / traced
		}
		return 0
	}
	selfMs := func(name string) float64 {
		if lt := self[name]; lt != nil {
			return ms(lt.own) / traced
		}
		return 0
	}
	var attributed time.Duration
	for name, lt := range self {
		if name != spanStep {
			attributed += lt.own
		}
	}
	m := map[string]metric{
		"transmit.decide_ns":         {r.decide.sum() * 1e6 / float64(r.live), "ns"},
		"transmit.sends_per_step":    {float64(r.sends) / steps, "count"},
		"transport.send_ms":          {r.send.mean(), "ms"},
		"transport.drain_ms":         {r.drain.mean(), "ms"},
		"transport.records_per_step": {float64(r.records) / steps, "count"},
		"transport.bytes_per_record": {float64(r.wire) / float64(r.records), "B"},
		"transport.backlog_retries":  {float64(r.retries), "count"},
		"transport.protocol_errors":  {float64(r.protocolErrors), "count"},
		"serve.tick_p50_ms":          {r.tick.median(), "ms"},
		"serve.tick_p90_ms":          {r.tick.quantile(0.9), "ms"},
		"serve.tick_self_ms":         {selfMs(spanTick), "ms"},
		"serve.joins":                {float64(r.joins), "count"},
		"serve.evictions":            {float64(r.evictions), "count"},
		"core.ingest_ms":             {spanMs("core.ingest"), "ms"},
		"core.cluster_ms":            {spanMs("core.cluster"), "ms"},
		"core.refit_ms":              {spanMs("core.refit"), "ms"},
		"core.forecast_ms":           {spanMs("core.forecast"), "ms"},
		"core.publish_ms":            {spanMs("core.publish"), "ms"},
		"core.warm_refit_share":      {ratio(float64(r.warm), float64(r.warm+r.full)), "share"},
		"core.trainings":             {float64(r.trainings), "count"},
		"core.train_ms":              {ratio(ms(r.trainTime), float64(r.trainings)), "ms"},
		"persist.wal_append_ms":      {spanMs(spanWAL), "ms"},
		"persist.wal_bytes_per_step": {float64(r.walBytes) / steps, "B"},
		"persist.checkpoint_ms":      {ratio(ms(r.ckptTime), float64(r.checkpoints)), "ms"},
		"persist.checkpoints":        {float64(r.checkpoints), "count"},
		"persist.checkpoint_errors":  {float64(r.ckptErrors), "count"},
		"persist.replayed_steps":     {0, "count"},
		"persist.recover_ms":         {0, "ms"},
		"serve.cold_query_ms":        {r.cold.mean(), "ms"},
		"serve.cached_query_ms":      {r.cached.mean(), "ms"},
		"serve.forecast_compute_ms":  {r.cold.mean() - r.cached.mean(), "ms"},
		"serve.response_kb":          {float64(r.coldBytes) / steps / 1024, "KiB"},
		"serve.cache_hit_ratio":      {qs.Cache.HitRatio, "share"},
		"serve.rejected":             {float64(qs.Requests.Rejected), "count"},
		"alert.evaluate_ms":          {r.alert.mean(), "ms"},
		"alert.events":               {float64(r.alertEvents), "count"},
		"go.alloc_mb_per_step":       {float64(r.alloc) / steps / (1 << 20), "MiB"},
		"go.gc_per_step":             {float64(r.gcs) / steps, "count"},
		"go.peak_rss_mb":             {peakRSSMB(), "MiB"},
		"trace.overhead_pct":         {100 * (r.tracedWall.Seconds()/traced/(r.plainWall.Seconds()/float64(r.plainSteps)) - 1), "%"},
		"trace.spans":                {float64(len(tr.spans)), "count"},
		"trace.attributed_share":     {ratio(float64(attributed), float64(self[spanStep].total)), "share"},
		"ref.steps_per_s_1thread":    {float64(rr.steps) / rr.wall.Seconds(), "1/s"},
		"tail.freshness_p90_ms":      {r.fresh.quantile(0.9), "ms"},
		"tail.query_p90_ms":          {r.cached.quantile(0.9), "ms"},
	}
	if rec != nil {
		m["persist.replayed_steps"] = metric{float64(rec.replayed), "count"}
		m["persist.recover_ms"] = metric{rec.times.median(), "ms"}
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
