package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer of the stack. Spans of one unit of
// work (a figure cell, a native app run, an app's certification) share a
// Group; Parent links a span to the span that was open when it began.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: top level
	Group  string        `json:"group"`
	Name   string        `json:"name"` // <module>.<call>
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer records nothing and costs
// one nil check per call, which is what the untraced runs use. It is used
// from one goroutine only: every span is opened and closed by the
// benchmark's own driver loop, around a blocking call into the layer.
type tracer struct {
	t0    time.Time
	group string
	spans []span
	open  []int // indices into spans of the currently open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setGroup names the unit of work the following spans belong to.
func (t *tracer) setGroup(g string) {
	if t != nil {
		t.group = g
	}
}

// do runs fn inside a span named name, attributed to layer.
func (t *tracer) do(name, layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Group: t.group,
		Name: name, Layer: layer, Start: time.Since(t.t0),
	})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	defer func() {
		t.spans[idx].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}()
	fn()
}

// mark returns a cursor: spans recorded after it belong to the next window.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// window returns the spans recorded since the cursor.
func (t *tracer) window(from int) []span {
	if t == nil {
		return nil
	}
	return t.spans[from:]
}

// spanMetric names the per-layer time metric each span kind sums into.
// spmd.Run appears on both backends; its layer tells them apart.
var spanMetric = map[[2]string]string{
	{"region.build", "region"}:         "region.build_ms",
	{"cr.compile", "cr"}:               "cr.compile_ms",
	{"spmd.run", "spmd+realm (DES)"}:   "spmd.run_ms",
	{"rt.run", "rt"}:                   "rt.run_ms",
	{"baseline.run", "baseline"}:       "baseline.run_ms",
	{"verify.analyze", "verify"}:       "verify.analyze_ms",
	{"verify.races", "verify"}:         "verify.races_ms",
	{"verify.liveness", "verify"}:      "verify.liveness_ms",
	{"verify.spec", "verify"}:          "verify.spec_ms",
	{"verify.agg", "verify"}:           "verify.agg_ms",
	{"verify.prune", "verify"}:         "verify.prune_ms",
	{"spmd.run", "spmd+native (Real)"}: "spmd.real_run_ms",
}

// spanMetrics adds the spans' summed durations, in ms, to m.
func spanMetrics(m map[string]float64, spans []span) {
	for _, s := range spans {
		if name, ok := spanMetric[[2]string{s.Name, s.Layer}]; ok {
			m[name] += ms(s.dur())
		}
	}
}

// selfByLayer returns each layer's self time: every span's duration minus
// the time covered by its direct children. Unit-of-work spans (a figure
// cell, an app run) carry the empty layer: their self time is the
// benchmark's own bookkeeping and lands in the table's "other" row.
func selfByLayer(spans []span) map[string]time.Duration {
	child := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - child[s.ID]
	}
	return out
}

// layerOrder lists the table's rows in stack order; every span carries one
// of these layers or the empty one. Layers absent from a workload print as
// zero, which is the prediction for a layer it bypasses.
var layerOrder = []string{
	"region", "cr", "spmd+realm (DES)", "rt", "baseline", "verify", "spmd+native (Real)",
}

// writeLayerTable prints the per-layer self-time shares of the traced wall
// time, with the unattributed remainder as an explicit "other" row, and
// returns that remainder.
func writeLayerTable(w io.Writer, workload string, spans []span, wall time.Duration) time.Duration {
	self := selfByLayer(spans)
	fmt.Fprintf(w, "layer shares, %s (traced wall %.3f s)\n", workload, wall.Seconds())
	fmt.Fprintf(w, "| %-20s | %10s | %7s |\n", "layer", "self ms", "share")
	fmt.Fprintf(w, "|%s|%s|%s|\n", strings.Repeat("-", 22), strings.Repeat("-", 12), strings.Repeat("-", 9))
	var sum time.Duration
	row := func(name string, d time.Duration) {
		share := 0.0
		if wall > 0 {
			share = 100 * d.Seconds() / wall.Seconds()
		}
		fmt.Fprintf(w, "| %-20s | %10.1f | %6.1f%% |\n", name, ms(d), share)
	}
	for _, l := range layerOrder {
		row(l, self[l])
		sum += self[l]
	}
	row("other", wall-sum)
	return wall - sum
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
