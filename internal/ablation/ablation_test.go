package ablation

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/circuit"
	"repro/internal/cr"
	"repro/internal/intersect"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// circuitApp builds the circuit at the given piece count for the
// intersection ablations.
func circuitApp(pieces int) *circuit.App {
	return circuit.Build(circuit.Default(pieces))
}

const abNodes = 32

// BenchmarkAblationSync compares the §3.4 synchronization lowerings: the
// naive global barriers of Figure 4c vs point-to-point sync scoped to the
// non-empty intersection pairs.
func BenchmarkAblationSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := map[cr.SyncMode]Metrics{}
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			prog, loop := stencil1D(int64(abNodes)*1000, int64(abNodes), 10, true)
			m, err := runConfig(prog, loop, abNodes, cr.Options{NumShards: abNodes, Sync: sync}, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			rows[sync] = m
		}
		if i == 0 {
			fmt.Printf("\nAblation: synchronization lowering (%d nodes)\n", abNodes)
			fmt.Printf("  p2p:     %s\n", rows[cr.PointToPoint].Fmt())
			fmt.Printf("  barrier: %s\n", rows[cr.BarrierSync].Fmt())
			b.ReportMetric(float64(rows[cr.BarrierSync].PerIter)/float64(rows[cr.PointToPoint].PerIter), "barrier/p2p-ratio")
		}
	}
}

func TestSyncAblationP2PNotSlower(t *testing.T) {
	prog1, loop1 := stencil1D(int64(abNodes)*1000, int64(abNodes), 10, true)
	p2p, err := runConfig(prog1, loop1, abNodes, cr.Options{NumShards: abNodes, Sync: cr.PointToPoint}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog2, loop2 := stencil1D(int64(abNodes)*1000, int64(abNodes), 10, true)
	bar, err := runConfig(prog2, loop2, abNodes, cr.Options{NumShards: abNodes, Sync: cr.BarrierSync}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2p.PerIter > bar.PerIter {
		t.Errorf("p2p per-iter %v should not exceed barriers %v", p2p.PerIter, bar.PerIter)
	}
}

// BenchmarkAblationHierarchy compares flat vs hierarchical (§4.5)
// partitioning: the private/ghost split removes the private data from the
// copies and from the intersection analysis.
func BenchmarkAblationHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var flat, hier Metrics
		var err error
		progF, loopF := stencil1D(int64(abNodes)*1000, int64(abNodes), 10, false)
		if flat, err = runConfig(progF, loopF, abNodes, cr.Options{NumShards: abNodes}, 0, nil); err != nil {
			b.Fatal(err)
		}
		progH, loopH := stencil1D(int64(abNodes)*1000, int64(abNodes), 10, true)
		if hier, err = runConfig(progH, loopH, abNodes, cr.Options{NumShards: abNodes}, 0, nil); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation: flat vs hierarchical partitioning (%d nodes)\n", abNodes)
			fmt.Printf("  flat:         %s\n", flat.Fmt())
			fmt.Printf("  hierarchical: %s\n", hier.Fmt())
			b.ReportMetric(float64(flat.Volume)/float64(hier.Volume), "flat/hier-copy-volume")
		}
	}
}

func TestHierarchyAblationReducesVolume(t *testing.T) {
	progF, loopF := stencil1D(8000, 8, 4, false)
	flat, err := runConfig(progF, loopF, 8, cr.Options{NumShards: 8}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	progH, loopH := stencil1D(8000, 8, 4, true)
	hier, err := runConfig(progH, loopH, 8, cr.Options{NumShards: 8}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Volume*10 > flat.Volume {
		t.Errorf("hierarchical copy volume %d should be well below flat %d", hier.Volume, flat.Volume)
	}
	if hier.BytesSent >= flat.BytesSent {
		t.Errorf("hierarchical bytes %d should be below flat %d", hier.BytesSent, flat.BytesSent)
	}
}

// BenchmarkAblationPlacement compares the §3.2 copy-placement passes
// against the naive Figure 4a placement on a program with a redundant
// write-write-read pattern.
func BenchmarkAblationPlacement(b *testing.B) {
	build := func() (*ir.Program, *ir.Loop) {
		f := progtest.NewFigure2(int64(abNodes)*500, int64(abNodes), 10)
		tf := f.Loop.Body[0].(*ir.Launch)
		dup := &ir.Launch{Task: tf.Task, Domain: tf.Domain, Args: tf.Args, Label: "loopF2"}
		f.Loop.Body = []ir.Stmt{f.Loop.Body[0], dup, f.Loop.Body[1]}
		return f.Prog, f.Loop
	}
	for i := 0; i < b.N; i++ {
		progN, loopN := build()
		naive, err := runConfig(progN, loopN, abNodes, cr.Options{NumShards: abNodes, NoPlacementOpt: true}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		progO, loopO := build()
		opt, err := runConfig(progO, loopO, abNodes, cr.Options{NumShards: abNodes}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation: copy placement (%d nodes, redundant double-write program)\n", abNodes)
			fmt.Printf("  naive (Figure 4a): %s\n", naive.Fmt())
			fmt.Printf("  optimized (§3.2):  %s\n", opt.Fmt())
			b.ReportMetric(float64(naive.Volume)/float64(opt.Volume), "naive/opt-copy-volume")
		}
	}
}

func TestPlacementAblationRemovesCopies(t *testing.T) {
	f := progtest.NewFigure2(400, 8, 4)
	tf := f.Loop.Body[0].(*ir.Launch)
	dup := &ir.Launch{Task: tf.Task, Domain: tf.Domain, Args: tf.Args, Label: "loopF2"}
	f.Loop.Body = []ir.Stmt{f.Loop.Body[0], dup, f.Loop.Body[1]}
	naive, err := runConfig(f.Prog, f.Loop, 8, cr.Options{NumShards: 8, NoPlacementOpt: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2 := progtest.NewFigure2(400, 8, 4)
	tf2 := f2.Loop.Body[0].(*ir.Launch)
	dup2 := &ir.Launch{Task: tf2.Task, Domain: tf2.Domain, Args: tf2.Args, Label: "loopF2"}
	f2.Loop.Body = []ir.Stmt{f2.Loop.Body[0], dup2, f2.Loop.Body[1]}
	opt, err := runConfig(f2.Prog, f2.Loop, 8, cr.Options{NumShards: 8}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Copies >= naive.Copies {
		t.Errorf("optimized copies %d should be below naive %d", opt.Copies, naive.Copies)
	}
	if opt.Volume >= naive.Volume {
		t.Errorf("optimized volume %d should be below naive %d", opt.Volume, naive.Volume)
	}
}

// BenchmarkAblationWindow sweeps the shard scheduling window under noise:
// deeper run-ahead absorbs more of the spikes that stall bulk-synchronous
// codes.
func BenchmarkAblationWindow(b *testing.B) {
	noise := realm.SpikeNoise(0.05, 0.3, 42)
	for i := 0; i < b.N; i++ {
		results := map[int]Metrics{}
		for _, w := range []int{1, 2, 4} {
			prog, loop := stencil1D(int64(abNodes)*1000, int64(abNodes), 16, true)
			m, err := runConfig(prog, loop, abNodes, cr.Options{NumShards: abNodes}, w, noise)
			if err != nil {
				b.Fatal(err)
			}
			results[w] = m
		}
		if i == 0 {
			fmt.Printf("\nAblation: shard scheduling window under noise (%d nodes)\n", abNodes)
			for _, w := range []int{1, 2, 4} {
				fmt.Printf("  window=%d: per-iter=%v\n", w, results[w].PerIter)
			}
			b.ReportMetric(float64(results[1].PerIter)/float64(results[4].PerIter), "w1/w4-ratio")
		}
	}
}

func TestWindowAblationDeeperNotSlower(t *testing.T) {
	noise := realm.SpikeNoise(0.05, 0.3, 42)
	run := func(w int) realm.Time {
		prog, loop := stencil1D(16000, 16, 16, true)
		m, err := runConfig(prog, loop, 16, cr.Options{NumShards: 16}, w, noise)
		if err != nil {
			t.Fatal(err)
		}
		return m.PerIter
	}
	if run(4) > run(1) {
		t.Error("deeper scheduling window should not be slower under noise")
	}
}

// BenchmarkAblationShallow compares the accelerated shallow phase (interval
// tree over subregion bounds, §3.3) against the naive O(N^2) all-pairs
// comparison it replaces, on the circuit application's irregular ghost
// partition at increasing piece counts.
func BenchmarkAblationShallow(b *testing.B) {
	app := circuitApp(512)
	src, dst := app.ShrN, app.GhostN
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersect.Shallow(src, dst)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersect.ShallowBrute(src, dst)
		}
	})
}

func TestShallowTreeFasterAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	app := circuitApp(512)
	src, dst := app.ShrN, app.GhostN
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		intersect.Shallow(src, dst)
	}
	tree := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < 3; i++ {
		intersect.ShallowBrute(src, dst)
	}
	brute := time.Since(t0)
	if tree > brute {
		t.Errorf("accelerated shallow (%v) should beat brute force (%v) at 512 pieces", tree, brute)
	}
}
