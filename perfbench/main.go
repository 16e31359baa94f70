// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public entry points of the stack, checks every
// output, and prints the metrics named in BENCHMARK.json:
//
//	bash perfbench/run.sh --workload figures-des --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - figures-des regenerates Figures 6-9 on the discrete-event simulator
//     (every system of every app at nodes 1..1024), one cell at a time,
//     through harness.App.Measure.
//   - native-spmd runs regent-cr on the native backend in Real mode:
//     stencil at 4 nodes and circuit at 8 pieces, eight 20-iteration runs
//     of each.
//   - certify runs the crc -verify, -agg and -prune certification paths
//     over all four apps.
//
// With --trace 0 the final line carries the end-to-end metrics; with
// --trace 1 the workload calls each layer itself, records a span around
// every call, prints a layer-share table and reports the per-layer
// metrics. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is Figure 9's circuit seed (circuit.Default).
const defaultSeed = 20170101

// runCfg is what a workload receives.
type runCfg struct {
	seed   int64
	budget time.Duration // time to spend in timed rounds
	tr     *tracer       // nil when untraced
}

// round is one repetition of a workload's timed phase.
type round struct {
	wall     time.Duration // the timed phase
	p50, p90 float64       // per-step wall time, ms
	steps    int           // samples behind p50 and p90
	warmup   time.Duration // warm-up inside the round, counted as set-up
	// named holds this workload's values of the end-to-end metrics the
	// design names per workload (fig6_s, stencil_iter_ms.p50, ...).
	named map[string]float64
	// layers holds the per-layer metrics; filled only when traced.
	layers map[string]float64
}

// outcome is a workload's whole run.
type outcome struct {
	attempted, failed int
	failures          []string
	setups            []time.Duration
	rounds            []round
	clocks            []time.Duration // each round's whole wall time
	peakRSS           float64         // MB, read right after the timed rounds
	allocMB, gcCycles float64         // over the timed rounds, per round
}

// check records one operation and whether it passed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// timeSetups runs fn reps times, timing each, and returns the last error.
func (o *outcome) timeSetups(reps int, fn func() error) error {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	return nil
}

// runRounds repeats fn until the next round would overrun the budget; at
// least one round always runs. It also measures the Go heap's allocation
// and GC counts over the rounds and the peak RSS at their end.
func (o *outcome) runRounds(budget time.Duration, fn func() round) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for {
		t0 := time.Now()
		r := fn()
		last := time.Since(t0)
		o.rounds = append(o.rounds, r)
		o.clocks = append(o.clocks, last)
		if time.Since(start)+last > budget {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(o.rounds))
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
	o.gcCycles = float64(m1.NumGC-m0.NumGC) / n
	o.peakRSS = peakRSSMB()
}

var workloads = map[string]func(runCfg) (*outcome, error){
	"figures-des": runFigures,
	"native-spmd": runNative,
	"certify":     runCertify,
}

// endToEnd and perLayer list the metric names in BENCHMARK.json order,
// with their units.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"step_ms.p50", "ms"}, {"step_ms.p90", "ms"},
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"region.build_ms", "ms"},
	{"cr.compile_ms", "ms"}, {"cr.intersect_shallow_ms", "ms"}, {"cr.intersect_complete_ms", "ms"},
	{"cr.intersect_candidates", "count"}, {"cr.intersect_pairs", "count"},
	{"spmd.run_ms", "ms"}, {"realm.events", "count"}, {"realm.messages", "count"},
	{"realm.bytes", "bytes"}, {"realm.events_per_s", "1/s"},
	{"spmd.specializations", "count"}, {"spmd.replayed_iters", "count"},
	{"rt.run_ms", "ms"}, {"rt.events", "count"}, {"rt.replayed_launches", "count"},
	{"baseline.run_ms", "ms"},
	{"verify.analyze_ms", "ms"}, {"verify.races_ms", "ms"}, {"verify.liveness_ms", "ms"},
	{"verify.spec_ms", "ms"}, {"verify.agg_ms", "ms"}, {"verify.prune_ms", "ms"},
	{"verify.hb_nodes", "count"}, {"verify.hb_edges", "count"}, {"verify.conflicts", "count"},
	{"verify.sync_edges_before", "count"}, {"verify.sync_edges_after", "count"},
	{"verify.merged_pairs", "count"},
	{"spmd.real_run_ms", "ms"}, {"native.kernel_ms", "ms"}, {"native.copy_ms", "ms"},
	{"native.other_ms", "ms"}, {"native.dispatches", "count"}, {"native.steals", "count"},
	{"native.inline_completions", "count"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
	{"trace.wall_s", "s"}, {"trace.other_ms", "ms"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "figures-des, native-spmd or certify")
	seed := fs.Int64("seed", defaultSeed, "circuit Config.Seed for native-spmd and certify (figures-des ignores it)")
	seconds := fs.Float64("seconds", 25, "time budget for the timed rounds")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := fs.String("record", "", "write fresh expected-results files into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordExpected(*record, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want figures-des, native-spmd or certify)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runCfg{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	if *traced == 1 {
		cfg.tr = newTracer()
	}

	// Marshaling a map of strings and numbers cannot fail.
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(*name, *seed, *traced == 1)})
	fmt.Fprintln(stdout, string(prov))

	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range o.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	if o.attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: the workload attempted nothing")
		return 1
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	printNamed(stdout, o)
	vals := map[string]float64{
		"wall_s":      median(collect(o.rounds, func(r round) float64 { return r.wall.Seconds() })),
		"step_ms.p50": median(collect(o.rounds, func(r round) float64 { return r.p50 })),
		"step_ms.p90": median(collect(o.rounds, func(r round) float64 { return r.p90 })),
		"setup_s": median(durationsS(o.setups)) +
			median(collect(o.rounds, func(r round) float64 { return r.warmup.Seconds() })),
		"peak_rss_mb": o.peakRSS,
	}
	fmt.Fprintf(stdout, "samples: %d rounds of %d steps, %d set-ups\n", len(o.rounds), o.rounds[0].steps, len(o.setups))
	if cfg.tr == nil {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		// The traced run's own end-to-end numbers: subtracting the
		// untraced run's gives the tracing overhead.
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "traced %-14s %12.4f %s\n", m.name, vals[m.name], m.unit)
		}
		spans := cfg.tr.spans
		var clock time.Duration
		for _, d := range o.clocks {
			clock += d
		}
		other := writeLayerTable(stdout, *name, spans, clock)
		n := float64(len(o.rounds))
		for _, m := range perLayer {
			v := median(collect(o.rounds, func(r round) float64 { return r.layers[m.name] }))
			switch m.name {
			case "go.alloc_mb":
				v = o.allocMB
			case "go.gc_cycles":
				v = o.gcCycles
			case "trace.wall_s":
				v = clock.Seconds() / n
			case "trace.other_ms":
				v = ms(other) / n
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		if err := writeSpans(spanPath(*name, *seed), spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printNamed prints the workload's named end-to-end values (medians over
// rounds) in a stable order.
func printNamed(w io.Writer, o *outcome) {
	keys := map[string]bool{}
	for _, r := range o.rounds {
		for k := range r.named {
			keys[k] = true
		}
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "named %-22s %12.4f\n", k, median(collect(o.rounds, func(r round) float64 { return r.named[k] })))
	}
}

// spanPath is where a traced run writes its spans: the build directory the
// run script uses, which version control ignores.
func spanPath(workload string, seed int64) string {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
}
