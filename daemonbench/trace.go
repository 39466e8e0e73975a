package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"orcf/internal/core"
)

// span is one timed call into a layer. Spans of one step share Trace (the
// step number); Parent indexes the enclosing span, -1 for a step's root.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (tr *tracer) begin(trace int, name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Trace: trace, Name: name, Parent: parent,
		Start: int64(time.Since(tr.t0)), End: -1})
	return len(tr.spans) - 1
}

// end closes the span begin returned.
func (tr *tracer) end(idx int) {
	if tr == nil || idx < 0 {
		return
	}
	tr.spans[idx].End = int64(time.Since(tr.t0))
}

// add records a finished span; the phase observer uses it because core
// reports phases as durations after the fact.
func (tr *tracer) add(trace int, name string, parent int, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{Trace: trace, Name: name, Parent: parent,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	name       string
	count      int
	total, own time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (overlapping
// children count once).
func (tr *tracer) selfTimes() map[string]*layerTime {
	children := make([][]int, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range tr.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.count++
		lt.total += time.Duration(dur)
		lt.own += time.Duration(dur - covered(tr.spans, children[i], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi) the listed spans cover.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach int64 = 0, lo
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			sum += v.b - reach
			reach = v.b
		}
	}
	return sum
}

// write stores the spans as a JSON array, one span per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	for i, s := range tr.spans {
		b, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		sep := ","
		if i == len(tr.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "%s%s\n", b, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the per-layer self-time table, stages in descending
// self time, with each stage's share of the summed step wall time.
func (tr *tracer) printTable(w io.Writer, steps int) {
	lts := tr.selfTimes()
	rows := make([]*layerTime, 0, len(lts))
	var wall time.Duration
	for _, lt := range lts {
		rows = append(rows, lt)
		if lt.name == spanStep {
			wall = lt.total
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].own > rows[j].own })
	fmt.Fprintf(w, "%-26s %8s %12s %12s %8s\n", "span", "count", "self ms/step", "total ms/step", "self %")
	var sum time.Duration
	for _, lt := range rows {
		sum += lt.own
		fmt.Fprintf(w, "%-26s %8d %12.4f %12.4f %7.2f%%\n", lt.name, lt.count,
			ms(lt.own)/float64(steps), ms(lt.total)/float64(steps), 100*float64(lt.own)/float64(wall))
	}
	fmt.Fprintf(w, "%-26s %8s %12.4f %12.4f %7.2f%%\n", "sum of self times", "",
		ms(sum)/float64(steps), ms(wall)/float64(steps), 100*float64(sum)/float64(wall))
}

// phaseSpans is the core.PhaseObserver of traced runs: it turns the
// reported Step sub-phases into child spans of the current tick. Ingest is
// reported as it ends. Cluster and refit are reported together after the
// per-tracker fan-out, as CPU time summed across parallel trackers, and
// forecast and publish together at the end (publish includes the snapshot
// assembly, which runs before the forecast precompute). Each such group
// splits the wall time since the previous group in proportion to the
// reported durations, so the phase spans partition the Step's wall time.
type phaseSpans struct {
	tr      *tracer
	trace   int
	parent  int
	lastEnd time.Time // end of the previous group, or the tick's start
	pending []phaseTime
}

type phaseTime struct {
	phase core.StepPhase
	d     time.Duration
}

var phaseNames = func() (names [core.NumStepPhases]string) {
	for p := range names {
		names[p] = "core." + core.StepPhase(p).String()
	}
	return names
}()

// ObserveStepPhase implements core.PhaseObserver.
func (p *phaseSpans) ObserveStepPhase(phase core.StepPhase, d time.Duration) {
	now := time.Now()
	p.pending = append(p.pending, phaseTime{phase, d})
	switch phase {
	case core.PhaseCluster, core.PhaseForecast:
		return // the group's second phase follows
	case core.PhaseIngest:
		if start := now.Add(-d); start.After(p.lastEnd) {
			p.lastEnd = start // the stepper's own work before Step is tick self time
		}
	}
	var sum time.Duration
	for _, pt := range p.pending {
		sum += pt.d
	}
	wall := now.Sub(p.lastEnd)
	start := p.lastEnd
	for i, pt := range p.pending {
		end := now
		if i < len(p.pending)-1 && sum > 0 {
			end = start.Add(time.Duration(float64(wall) * float64(pt.d) / float64(sum)))
		}
		p.tr.add(p.trace, phaseNames[pt.phase], p.parent, start, end)
		start = end
	}
	p.pending = p.pending[:0]
	p.lastEnd = now
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
