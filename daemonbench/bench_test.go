package main

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"orcf/internal/serve"
	"orcf/internal/transport"
)

// scaled returns the workload shrunk for smoke tests: fleet size, run cap
// and repetition counts divided down, layers and configuration kept.
func (w workload) scaled(nodes, maxSteps int) workload {
	w.nodes = nodes
	w.maxSteps = maxSteps
	if w.prefix > maxSteps/2 {
		w.prefix = maxSteps / 2
	}
	if w.recoveries > 2 {
		w.recoveries = 2
	}
	return w
}

// smoke is the outcome of one tiny-scale window.
type smoke struct {
	rmse, tx float64
	store    map[int]transport.NodeStat
}

// runSmoke sets a workload up at 64 nodes, runs a minimal window and, for
// durable workloads, the checkpoint, WAL tail and recoveries.
func runSmoke(t *testing.T, w workload, seed uint64) smoke {
	t.Helper()
	w = w.scaled(64, 400)
	ip, err := newInputs(w, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	counts := &ops{}
	in, _, err := setUp(ip, 0, nil, "smoke", counts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := in.runWindow(0.001, 1)
	if err != nil {
		in.close()
		t.Fatal(err)
	}
	out := smoke{rmse: r.acc.rmse(), tx: float64(r.prefixSends) / float64(r.prefixLive), store: in.store.Stats()}
	if w.durable {
		rec, err := in.finishDurable(ip)
		if err != nil {
			t.Fatal(err)
		}
		if rec.replayed != w.walTail {
			t.Errorf("recovery replayed %d steps, want the %d-step WAL tail", rec.replayed, w.walTail)
		}
	} else {
		in.close()
	}
	if counts.failed != 0 || counts.attempted == 0 {
		t.Errorf("%d of %d operations failed", counts.failed, counts.attempted)
	}
	return out
}

// TestWorkloadsRepeat runs every workload twice on one seed and once on
// another: the accuracy metrics and the store must repeat bit for bit for
// the seed and change with it.
func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runSmoke(t, w, 1)
			b := runSmoke(t, w, 1)
			c := runSmoke(t, w, 2)
			if a.rmse != b.rmse || a.tx != b.tx {
				t.Errorf("seed 1 twice: rmse %v/%v, tx_share %v/%v", a.rmse, b.rmse, a.tx, b.tx)
			}
			if !reflect.DeepEqual(a.store, b.store) {
				t.Error("seed 1 twice: store contents differ")
			}
			if a.rmse == c.rmse || reflect.DeepEqual(a.store, c.store) {
				t.Errorf("seeds 1 and 2 gave the same results (rmse %v)", a.rmse)
			}
			if a.rmse <= 0 || a.tx <= 0 || a.tx > 1 {
				t.Errorf("rmse %v, tx_share %v out of range", a.rmse, a.tx)
			}
		})
	}
}

// TestStoreGateCatchesTampering shows the store gate is live: a record the
// fleet never sent fails it.
func TestStoreGateCatchesTampering(t *testing.T) {
	w := workloads[0].scaled(16, 400)
	ip, err := newInputs(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := setUp(ip, 0, nil, "gate", &ops{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if err := in.checkStore(); err != nil {
		t.Fatalf("untouched store: %v", err)
	}
	in.store.Apply(transport.Measurement{Node: 5, Step: in.t + 1, Values: []float64{0.5, 0.5}})
	if err := in.checkStore(); !errors.Is(err, errCheck) {
		t.Fatalf("tampered store passed the gate: %v", err)
	}
}

// TestPerLayerRun runs the traced mode at tiny scale: every per-layer
// metric is reported and the spans account for the step wall time.
func TestPerLayerRun(t *testing.T) {
	w := workloads[2].scaled(64, 400)
	m, err := perLayer(w, 1, 0.003, t.TempDir(), t.TempDir(), &ops{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.tick_self_ms", "persist.recover_ms", "core.cluster_ms", "ref.steps_per_s_1thread"} {
		if v, ok := m[name]; !ok || !(v.Value > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if s := m["trace.attributed_share"].Value; s < 0.95 || s > 1.05 {
		t.Errorf("stage self times cover %.3f of the step wall time", s)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 40, End: 50}}
	if got := covered(spans, []int{0, 1, 2, 3}, 2, 25); got != 13+5 {
		t.Errorf("covered = %d, want 18", got)
	}
}

func TestParseHead(t *testing.T) {
	gen, step, ok := parseHead([]byte(`{"generation":12,"step":34,"horizon":4}`))
	if !ok || gen != 12 || step != 34 {
		t.Errorf("parseHead = %d %d %v", gen, step, ok)
	}
	if _, _, ok := parseHead([]byte(`{"error":"x"}`)); ok {
		t.Error("parseHead accepted an error body")
	}
}

// TestParseForecast pins the scanner to what serve encodes.
func TestParseForecast(t *testing.T) {
	body, err := json.Marshal(serve.ForecastResponse{
		Generation: 7, Step: 9, Horizon: 2, Nodes: []int{3, 11},
		Forecast: [][][]float64{{{0.25, 1e-07}, {1, 0.3333333333333333}}, {{0, 0}, {0, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	step, nodes, vals, err := parseForecast(body, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if step != 9 || !reflect.DeepEqual(nodes, []int{3, 11}) ||
		!reflect.DeepEqual(vals, []float64{0.25, 1e-07, 1, 0.3333333333333333}) {
		t.Errorf("parsed step %d nodes %v vals %v", step, nodes, vals)
	}
	if _, _, _, err := parseForecast(body, 3, nil, nil); err == nil {
		t.Error("rows of 2 values parsed as 3")
	}
}
