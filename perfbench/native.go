package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/apps/circuit"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/region"
	"repro/internal/spmd"
)

// Each app runs nativeRuns times per round, nativeIters iterations each,
// interleaved with the other app. One engine run's per-iteration times
// shift by up to ±20% from the next on a shared 2-CPU host, so a round
// pools the steady-state samples of many short runs instead of taking
// them all from one long run: 8 × (20 - 5 warm-up - 1) = 112 samples per
// app.
const (
	nativeIters = 20
	nativeRuns  = 8
)

// nativeExpected holds the final-store hashes of ir.ExecSequential for the
// native programs at the default seed, recorded with --record and
// recomputed by TestNativeReferenceHashes.
//
//go:embed expected/native.json
var nativeExpectedJSON []byte

type nativeFile struct {
	Iters  int               `json:"iters"`
	Seed   int64             `json:"circuit_seed"`
	Hashes map[string]string `json:"hashes"` // app name -> storeHash
}

func loadNativeExpected() (nativeFile, error) {
	var f nativeFile
	if err := json.Unmarshal(nativeExpectedJSON, &f); err != nil {
		return f, fmt.Errorf("expected/native.json: %w", err)
	}
	if f.Iters != nativeIters {
		return f, fmt.Errorf("expected/native.json was recorded at %d iterations, the workload runs %d", f.Iters, nativeIters)
	}
	return f, nil
}

// nativeApp is one program of the native-spmd workload.
type nativeApp struct {
	name  string
	nodes int
	build func(seed int64) (*ir.Program, *ir.Loop)
}

var nativeApps = []nativeApp{
	{"stencil", 4, func(int64) (*ir.Program, *ir.Loop) {
		c := stencil.Native(4)
		c.Iters = nativeIters
		a := stencil.Build(c)
		return a.Prog, a.Loop
	}},
	{"circuit", 8, func(seed int64) (*ir.Program, *ir.Loop) {
		c := circuit.Default(8)
		c.Iters = nativeIters
		c.Seed = seed
		a := circuit.Build(c)
		return a.Prog, a.Loop
	}},
}

// runNative is the native-spmd workload: regent-cr in Real mode on real
// goroutines. The seed selects circuit's graph.
func runNative(cfg runCfg) (*outcome, error) {
	want, err := loadNativeExpected()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	// Set-up: build and compile both programs. Each app's warm-up
	// iterations, which hold trace capture, are added to it (the median
	// over the app's engine runs).
	if err := o.timeSetups(setupReps, func() error {
		for _, na := range nativeApps {
			prog, loop := na.build(cfg.seed)
			if _, err := cr.Compile(prog, loop, cr.Options{NumShards: na.nodes, Sync: cr.PointToPoint}); err != nil {
				return fmt.Errorf("%s: %w", na.name, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var hashes []map[string]string // per engine run
	o.runRounds(cfg.budget, func() round {
		r, h := nativeRound(cfg.tr, cfg.seed, o)
		hashes = append(hashes, h...)
		return r
	})
	// Check the final stores against the sequential interpreter, after the
	// timed rounds: at a seed other than the recorded one the reference is
	// computed live.
	refs := map[string]string{}
	for _, na := range nativeApps {
		refs[na.name] = want.Hashes[na.name]
		if na.name == "circuit" && cfg.seed != want.Seed {
			prog, _ := na.build(cfg.seed)
			refs[na.name] = storeHash(ir.ExecSequential(prog).Stores)
		}
	}
	checkNative(o, hashes, refs)
	return o, nil
}

// checkNative counts each completed app run as one operation, failing it
// when its final stores differ from the reference.
func checkNative(o *outcome, hashes []map[string]string, refs map[string]string) {
	for _, na := range nativeApps {
		for i, h := range hashes {
			if got, ran := h[na.name]; ran {
				o.check(got == refs[na.name], "native %s run %d: store hash %s, sequential reference %s", na.name, i, got, refs[na.name])
			}
		}
	}
}

// nativeRound runs each app nativeRuns times; a run that errors is a
// failed operation and is missing from the returned hashes.
func nativeRound(tr *tracer, seed int64, o *outcome) (round, []map[string]string) {
	r := round{named: map[string]float64{}, layers: map[string]float64{}}
	var hashes []map[string]string
	iterMs := map[string][]float64{}
	warmups := map[string][]float64{}
	from := tr.mark()
	for i := 0; i < nativeRuns; i++ {
		h := map[string]string{}
		for _, na := range nativeApps {
			tr.setGroup(fmt.Sprintf("%s/%d", na.name, i))
			var nr nativeResult
			var err error
			tr.do("app", "", func() { nr, err = nativeRun(tr, na, seed) })
			if err != nil {
				o.check(false, "native %s run %d: %v", na.name, i, err)
				continue
			}
			h[na.name] = nr.hash
			r.wall += nr.steady
			iterMs[na.name] = append(iterMs[na.name], nr.iterMs...)
			warmups[na.name] = append(warmups[na.name], nr.warmup.Seconds())
			if tr != nil {
				kernel, cp := nr.rec.kernel.Load(), nr.rec.copy.Load()
				r.layers["native.kernel_ms"] += ms(time.Duration(kernel))
				r.layers["native.copy_ms"] += ms(time.Duration(cp))
				r.layers["native.other_ms"] += ms(time.Duration(nr.sched.Workers)*nr.runWall - time.Duration(kernel+cp))
				r.layers["native.dispatches"] += float64(nr.sched.Dispatches)
				r.layers["native.steals"] += float64(nr.sched.Steals)
				r.layers["native.inline_completions"] += float64(nr.sched.InlineCompletions)
				r.layers["cr.intersect_shallow_ms"] += ms(nr.plan.Timings.Shallow)
				r.layers["cr.intersect_complete_ms"] += ms(nr.plan.Timings.Complete)
				r.layers["cr.intersect_candidates"] += float64(nr.plan.Timings.Candidates)
				r.layers["cr.intersect_pairs"] += float64(nr.plan.Timings.Pairs)
			}
		}
		hashes = append(hashes, h)
	}
	// A step is one iteration of each app: the per-app quantiles add up.
	for _, na := range nativeApps {
		p50, p90 := quantile(iterMs[na.name], 0.5), quantile(iterMs[na.name], 0.9)
		r.p50 += p50
		r.p90 += p90
		r.warmup += time.Duration(median(warmups[na.name]) * float64(time.Second))
		r.named[na.name+"_iter_ms.p50"] = p50
		r.named[na.name+"_iter_ms.p90"] = p90
		r.steps = len(iterMs[na.name]) // per app
	}
	spanMetrics(r.layers, tr.window(from))
	return r, hashes
}

type nativeResult struct {
	iterMs         []float64 // steady-state per-iteration wall times
	steady, warmup time.Duration
	runWall        time.Duration // spmd Run
	sched          native.SchedStats
	rec            *kernelClock
	plan           *cr.Compiled
	hash           string
}

// nativeRun builds, compiles and runs one app on the native backend, as
// bench.MeasureCR does with Backend native.
func nativeRun(tr *tracer, na nativeApp, seed int64) (nr nativeResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var prog *ir.Program
	var loop *ir.Loop
	tr.do("region.build", "region", func() { prog, loop = na.build(seed) })
	tr.do("cr.compile", "cr", func() {
		nr.plan, err = cr.Compile(prog, loop, cr.Options{NumShards: na.nodes, Sync: cr.PointToPoint})
	})
	if err != nil {
		return nr, err
	}
	mach, err := native.NewMachine(realm.DefaultConfig(na.nodes))
	if err != nil {
		return nr, err
	}
	if tr != nil {
		nr.rec = &kernelClock{}
		mach.SetTimeRecorder(nr.rec)
	}
	tune := bench.DefaultTuning(realm.DefaultConfig(na.nodes).CoresPerNode)
	eng := spmd.New(mach, prog, ir.ExecReal, map[*ir.Loop]*cr.Compiled{loop: nr.plan})
	eng.Over.ShardLaunchBase = tune.ShardLaunchBase
	eng.Over.KernelCores = tune.KernelCores
	eng.Over.Window = tune.Window
	var res *spmd.Result
	t0 := time.Now()
	tr.do("spmd.run", "spmd+native (Real)", func() { res, err = eng.Run() })
	nr.runWall = time.Since(t0)
	if err != nil {
		return nr, err
	}
	nr.sched = mach.SchedStats()
	times := res.IterTimes[loop]
	w := warmupIters(loop.Trip)
	if len(times) != loop.Trip {
		return nr, fmt.Errorf("%d of %d iterations completed", len(times), loop.Trip)
	}
	for i := w + 1; i < len(times); i++ {
		nr.iterMs = append(nr.iterMs, ms(time.Duration(times[i]-times[i-1])))
	}
	nr.warmup = time.Duration(times[w])
	nr.steady = time.Duration(times[len(times)-1] - times[w])
	nr.hash = storeHash(res.Stores)
	return nr, nil
}

// kernelClock sums the native machine's wall-clock samples of kernel and
// copy bodies; workers call it concurrently.
type kernelClock struct{ kernel, copy atomic.Int64 }

func (k *kernelClock) ObserveLaunch(_ realm.Time, wallNs int64) { k.kernel.Add(wallNs) }
func (k *kernelClock) ObserveCopy(_ int64, wallNs int64)        { k.copy.Add(wallNs) }

// storeHash digests every field of every root store, point by point in
// index-space order, so it depends on values only, not on layouts.
func storeHash(stores map[*region.Region]*region.Store) string {
	roots := make([]*region.Region, 0, len(stores))
	for r := range stores {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID() < roots[j].ID() })
	h := sha256.New()
	var buf [8]byte
	for _, r := range roots {
		st := stores[r]
		h.Write([]byte(r.Name() + "\x00"))
		for _, f := range st.FieldSpace().Fields() {
			r.IndexSpace().Each(func(p geometry.Point) bool {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(st.Get(f, p)))
				h.Write(buf[:])
				return true
			})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
