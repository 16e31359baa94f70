package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/rt"
	"repro/internal/spmd"
)

// figNodes is the condensed weak-scaling sweep of the repository's
// BenchmarkFigure6..9.
var figNodes = []int{1, 4, 16, 64, 256, 1024}

// figuresExpected holds every figure cell's modeled per-iteration time
// (virtual ns), recorded with --record; the DES is deterministic, so a
// cell that differs measured a different program.
//
//go:embed expected/figures.json
var figuresExpectedJSON []byte

type figuresFile struct {
	Cells map[string]int64 `json:"cells"` // cellKey -> per-iteration ns
}

func cellKey(app, system string, nodes int) string {
	return fmt.Sprintf("%s/%s/%d", app, system, nodes)
}

func loadFiguresExpected() (map[string]int64, error) {
	var f figuresFile
	if err := json.Unmarshal(figuresExpectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected/figures.json: %w", err)
	}
	return f.Cells, nil
}

// figApp pairs a harness app with what its Measure uses internally, so a
// traced cell can call Build, cr.Compile and the engines itself. The
// traced cell's per-iteration time must equal the expected (untraced)
// one, which is what keeps this copy of the calibration honest.
type figApp struct {
	harness.App
	build func(nodes, iters int) (*ir.Program, *ir.Loop)
	noise realm.NoiseFn // the app's tuning noise (the apps' unexported constants)
}

func figApps() []figApp {
	var out []figApp
	for _, a := range harness.Apps() {
		fa := figApp{App: a}
		switch a.Name {
		case "stencil":
			fa.build = func(n, it int) (*ir.Program, *ir.Loop) {
				c := stencil.Default(n)
				c.Iters = it
				app := stencil.Build(c)
				return app.Prog, app.Loop
			}
		case "miniaero":
			fa.build = func(n, it int) (*ir.Program, *ir.Loop) {
				c := miniaero.Default(n)
				c.Iters = it
				app := miniaero.Build(c)
				return app.Prog, app.Loop
			}
			fa.noise = realm.SpikeNoise(0.02, 0.06, 0xae50)
		case "pennant":
			fa.build = func(n, it int) (*ir.Program, *ir.Loop) {
				c := pennant.Default(n)
				c.Iters = it
				app := pennant.Build(c)
				return app.Prog, app.Loop
			}
			fa.noise = realm.SpikeNoise(0.02, 0.24, 0x5eed)
		case "circuit":
			fa.build = func(n, it int) (*ir.Program, *ir.Loop) {
				c := circuit.Default(n)
				c.Iters = it
				app := circuit.Build(c)
				return app.Prog, app.Loop
			}
		}
		out = append(out, fa)
	}
	return out
}

// runFigures is the figures-des workload. Its inputs are the paper's
// figure configurations, so it ignores the seed: a seeded variant would
// no longer reproduce the figures.
func runFigures(cfg runCfg) (*outcome, error) {
	expected, err := loadFiguresExpected()
	if err != nil {
		return nil, err
	}
	apps := figApps()
	o := &outcome{}
	// Set-up: one program build per app at a mid-size cell. Every cell of
	// the sweep pays its own build inside the timed phase.
	if err := o.timeSetups(setupReps, func() error {
		for _, fa := range apps {
			fa.build(64, fa.Iters)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	o.runRounds(cfg.budget, func() round {
		return figuresRound(cfg.tr, apps, figNodes, expected, o)
	})
	return o, nil
}

// figuresRound regenerates every figure once, checking every cell.
func figuresRound(tr *tracer, apps []figApp, nodes []int, expected map[string]int64, o *outcome) round {
	r := round{named: map[string]float64{}}
	var figMs []float64
	lc := &layerCounts{}
	from := tr.mark()
	t0 := time.Now()
	for _, fa := range apps {
		ta := time.Now()
		if tr == nil {
			// Exactly BenchmarkFigureN's call.
			series, err := harness.RunFigure(fa.App, nodes, nil)
			if err != nil {
				o.check(false, "figure %d: %v", fa.Figure, err)
				continue
			}
			for _, s := range series {
				for _, p := range s.Points {
					checkCell(o, expected, fa.Name, s.System, p.Nodes, p.PerIter, p.Err)
				}
			}
		} else {
			for _, sys := range fa.ActiveSystems() {
				for _, n := range nodes {
					per, err := tracedCell(tr, lc, fa, sys, n)
					errText := ""
					if err != nil {
						errText = err.Error()
					}
					checkCell(o, expected, fa.Name, sys, n, per, errText)
				}
			}
		}
		d := time.Since(ta)
		figMs = append(figMs, ms(d))
		r.named[fmt.Sprintf("fig%d_s", fa.Figure)] = d.Seconds()
	}
	r.wall = time.Since(t0)
	// A step is one figure's regeneration.
	r.p50, r.p90, r.steps = quantile(figMs, 0.5), quantile(figMs, 0.9), len(figMs)
	if tr != nil {
		r.layers = lc.metrics(tr.window(from))
	}
	return r
}

// checkCell counts one figure cell as an operation: it fails on an error
// or on a per-iteration time other than the expected one.
func checkCell(o *outcome, expected map[string]int64, app, system string, nodes int, per realm.Time, errText string) {
	key := cellKey(app, system, nodes)
	want, ok := expected[key]
	switch {
	case errText != "":
		o.check(false, "cell %s: %s", key, errText)
	case !ok:
		o.check(false, "cell %s: no expected value", key)
	default:
		o.check(int64(per) == want, "cell %s: per-iteration %d ns, expected %d", key, int64(per), want)
	}
}

// tracedCell measures one cell the way app.Measure does, but calls each
// layer itself inside a span.
func tracedCell(tr *tracer, lc *layerCounts, fa figApp, system string, nodes int) (per realm.Time, err error) {
	tr.setGroup(cellKey(fa.Name, system, nodes))
	tr.do("cell", "", func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		per, err = tracedCellBody(tr, lc, fa, system, nodes)
	})
	return per, err
}

func tracedCellBody(tr *tracer, lc *layerCounts, fa figApp, system string, nodes int) (realm.Time, error) {
	if system != "regent-cr" && system != "regent-nocr" {
		var per realm.Time
		var err error
		tr.do("baseline.run", "baseline", func() {
			per, err = fa.Measure(system, nodes, fa.Iters, bench.MeasureOpts{})
		})
		return per, err
	}
	var prog *ir.Program
	var loop *ir.Loop
	tr.do("region.build", "region", func() { prog, loop = fa.build(nodes, fa.Iters) })
	tune := bench.DefaultTuning(realm.DefaultConfig(nodes).CoresPerNode)
	tune.Noise = fa.noise
	sim, err := realm.NewSim(realm.DefaultConfig(nodes))
	if err != nil {
		return 0, err
	}
	var times []realm.Time
	if system == "regent-nocr" {
		eng := rt.New(sim, prog, rt.Modeled)
		eng.Over.LaunchBase = tune.ImplicitLaunchBase
		eng.Over.LaunchPerSub = tune.ImplicitLaunchPerSub
		eng.Over.KernelCores = tune.KernelCores
		eng.Over.Window = tune.ImplicitWindow
		eng.Over.Noise = tune.Noise
		var res *rt.Result
		tr.do("rt.run", "rt", func() { res, err = eng.Run() })
		if err != nil {
			return 0, err
		}
		ts := eng.TraceStats()
		lc.rtEvents += res.Stats.Events
		lc.rtReplayed += int64(ts.ReplayedLaunches)
		times = res.IterTimes[loop]
	} else {
		var plan *cr.Compiled
		tr.do("cr.compile", "cr", func() {
			plan, err = cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: cr.PointToPoint})
		})
		if err != nil {
			return 0, err
		}
		lc.addCompile(plan)
		eng := spmd.New(sim, prog, ir.ExecModeled, map[*ir.Loop]*cr.Compiled{loop: plan})
		eng.Over.ShardLaunchBase = tune.ShardLaunchBase
		eng.Over.KernelCores = tune.KernelCores
		eng.Over.Window = tune.Window
		eng.Over.Noise = tune.Noise
		var res *spmd.Result
		tr.do("spmd.run", "spmd+realm (DES)", func() { res, err = eng.Run() })
		if err != nil {
			return 0, err
		}
		ts := eng.TraceStats()
		lc.events += res.Stats.Events
		lc.messages += res.Stats.Messages
		lc.bytes += res.Stats.BytesSent
		lc.specializations += int64(ts.Specializations)
		lc.replayedIters += int64(ts.ReplayedIters)
		times = res.IterTimes[loop]
	}
	return steadyState(times, loop.Trip)
}

// steadyState is bench's steady-state rule: the mean per-iteration time
// after a warm-up of a quarter of the trip count (at least one).
func steadyState(times []realm.Time, trip int) (realm.Time, error) {
	skip := warmupIters(trip)
	if len(times)-skip < 2 {
		return 0, fmt.Errorf("%d iterations leave fewer than 2 steady-state samples", len(times))
	}
	return (times[len(times)-1] - times[skip]) / realm.Time(len(times)-1-skip), nil
}

func warmupIters(trip int) int {
	if w := trip / 4; w > 1 {
		return w
	}
	return 1
}

// layerCounts accumulates the counters a traced figures round reads from
// the layers it calls.
type layerCounts struct {
	shallow, complete       time.Duration
	candidates, pairs       int64
	events, messages, bytes int64
	specializations         int64
	replayedIters           int64
	rtEvents, rtReplayed    int64
}

func (lc *layerCounts) addCompile(plan *cr.Compiled) {
	lc.shallow += plan.Timings.Shallow
	lc.complete += plan.Timings.Complete
	lc.candidates += int64(plan.Timings.Candidates)
	lc.pairs += int64(plan.Timings.Pairs)
}

// metrics turns the round's spans and counters into per-layer metrics.
func (lc *layerCounts) metrics(spans []span) map[string]float64 {
	m := map[string]float64{
		"cr.intersect_shallow_ms":  ms(lc.shallow),
		"cr.intersect_complete_ms": ms(lc.complete),
		"cr.intersect_candidates":  float64(lc.candidates),
		"cr.intersect_pairs":       float64(lc.pairs),
		"realm.events":             float64(lc.events),
		"realm.messages":           float64(lc.messages),
		"realm.bytes":              float64(lc.bytes),
		"spmd.specializations":     float64(lc.specializations),
		"spmd.replayed_iters":      float64(lc.replayedIters),
		"rt.events":                float64(lc.rtEvents),
		"rt.replayed_launches":     float64(lc.rtReplayed),
	}
	spanMetrics(m, spans)
	if s := m["spmd.run_ms"]; s > 0 {
		m["realm.events_per_s"] = m["realm.events"] / (s / 1e3)
	}
	return m
}
