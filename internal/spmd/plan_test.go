package spmd

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// runCRPlan runs the program under SPMD and returns the result plus the
// shard-plan counters.
func runCRPlan(t *testing.T, prog *ir.Program, nodes, shards int, sync cr.SyncMode, mode ir.ExecMode) (*Result, TraceStats) {
	t.Helper()
	plans, err := CompileAll(prog, cr.Options{NumShards: shards, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, prog, mode, plans)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.TraceStats()
}

// requirePlanCounters asserts the one-path counters of a fault-free run:
// one shared capture, one specialization per shard, and every
// shard-iteration replayed.
func requirePlanCounters(t *testing.T, label string, stats TraceStats, shards, trip int) {
	t.Helper()
	want := TraceStats{Captures: 1, Specializations: shards, ReplayedIters: shards * trip}
	if stats != want {
		t.Errorf("%s: plan counters %+v, want %+v", label, stats, want)
	}
}

// interpretedSchedules are the schedules the per-iteration interpreter
// issued for these programs (4 shards on 4 nodes, p2p), recorded before it
// was removed; Real and Modeled mode issue the same schedule.
var interpretedSchedules = map[string]string{
	"figure2":      "elapsed=219238 msgs=54 bytes=2016 local=82 tasks=288 events=628",
	"regionReduce": "elapsed=57189 msgs=21 bytes=1080 local=15 tasks=72 events=168",
	"scalarSum":    "elapsed=45648 msgs=6 bytes=240 local=2 tasks=32 events=73",
}

// TestPlanReplayMatchesInterpreted: shard-plan replay engages (one plan
// per shard, every iteration replayed) and reproduces the interpreted
// schedule — virtual time and DES stats — bitwise, with Real-mode stores
// equal to sequential semantics. Covers halo exchange (Figure2), region
// reduction with fold chains, and scalar reduction with future-valued
// scalars.
func TestPlanReplayMatchesInterpreted(t *testing.T) {
	const shards, nodes = 4, 4
	for _, tc := range []struct {
		name  string
		build func() *ir.Program
		trip  int
	}{
		{"figure2", func() *ir.Program { return progtest.NewFigure2(48, 8, 6).Prog }, 6},
		{"regionReduce", func() *ir.Program { return progtest.NewRegionReduce(32, 4, 3).Prog }, 3},
		{"scalarSum", func() *ir.Program { return progtest.NewScalarSum(40, 8).Prog }, 2},
	} {
		for _, mode := range []ir.ExecMode{ir.ExecReal, ir.ExecModeled} {
			label := fmt.Sprintf("%s mode %v", tc.name, mode)
			got, stats := runCRPlan(t, tc.build(), nodes, shards, cr.PointToPoint, mode)
			requirePlanCounters(t, label, stats, shards, tc.trip)
			s := got.Stats
			sched := fmt.Sprintf("elapsed=%d msgs=%d bytes=%d local=%d tasks=%d events=%d",
				got.Elapsed, s.Messages, s.BytesSent, s.LocalCopies, s.TasksRun, s.Events)
			if want := interpretedSchedules[tc.name]; sched != want {
				t.Errorf("%s: schedule %s, interpreted %s", label, sched, want)
			}
		}
	}

	f := progtest.NewFigure2(48, 8, 6)
	seq := ir.ExecSequential(f.Prog)
	got, _ := runCRPlan(t, f.Prog, nodes, shards, cr.PointToPoint, ir.ExecReal)
	assertEqualStores(t, seq.Stores[f.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[f.B], got.Stores[f.B], f.B, f.Val)
}

// TestPlanBarrierReplays: the barrier lowering issues from shard plans
// too, with the same counters as p2p and stores equal to sequential
// semantics. Its schedule is pinned by TestBarrierScheduleGolden.
func TestPlanBarrierReplays(t *testing.T) {
	const shards, trip = 4, 4
	f := progtest.NewFigure2(48, 8, trip)
	seq := ir.ExecSequential(f.Prog)
	got, stats := runCRPlan(t, f.Prog, 4, shards, cr.BarrierSync, ir.ExecReal)
	requirePlanCounters(t, "barrier", stats, shards, trip)
	assertEqualStores(t, seq.Stores[f.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[f.B], got.Stores[f.B], f.B, f.Val)
}

// TestPlanTripOneReplaysOnce: a trip-1 loop resolves its plans once and
// runs them once. Its schedule is pinned by TestLoopShapeScheduleGolden.
func TestPlanTripOneReplaysOnce(t *testing.T) {
	const shards = 2
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		f := progtest.NewFigure2(24, 4, 1)
		_, stats := runCRPlan(t, f.Prog, 2, shards, sync, ir.ExecModeled)
		requirePlanCounters(t, fmt.Sprintf("trip-1 %v", sync), stats, shards, 1)
	}
}

// TestPlanFailoverInvalidates: a crash recovered by shard failover
// rebuilds the run state, which must discard the shard plans (the
// placement changed), ship the surviving shared capture to the new
// placement, re-specialize every shard from it without re-capturing, and
// still produce stores equal to sequential semantics. Runs the barrier
// lowering; TestShareFailoverShipsTrace covers p2p.
func TestPlanFailoverInvalidates(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}
	run := func(fp *realm.FaultPlan) (*Result, TraceStats, *progtest.Figure2) {
		f := progtest.NewFigure2(48, 8, 8)
		plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards, Sync: cr.BarrierSync})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(testConfig(nodes))
		if fp != nil {
			if err := sim.InjectFaults(*fp); err != nil {
				t.Fatal(err)
			}
		}
		eng := New(sim, f.Prog, ir.ExecReal, plans)
		eng.Recov = rec
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.TraceStats(), f
	}

	// Fault-free first, to time the crash mid-run and to pin the baseline:
	// plans persist across checkpointed epochs of one run state.
	res0, stats0, _ := run(nil)
	requirePlanCounters(t, "fault-free barrier recovery run", stats0, shards, 8)

	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: res0.Elapsed / 2}}}
	got, stats, f := run(fp)
	if got.Faults == nil || len(got.Faults.Crashes) != 1 || got.Faults.Restarts < 1 {
		t.Fatalf("fault report = %+v, want 1 crash and at least 1 restart", got.Faults)
	}
	if stats.Captures != 1 {
		t.Errorf("failover re-captured: %+v", stats)
	}
	if stats.Invalidations == 0 || stats.Specializations <= shards {
		t.Errorf("failover did not invalidate and re-specialize plans: %+v", stats)
	}
	if stats.Ships == 0 || stats.ShippedBytes == 0 {
		t.Errorf("barrier failover shipped nothing: %+v", stats)
	}

	refSeq := progtest.NewFigure2(48, 8, 8)
	seq := ir.ExecSequential(refSeq.Prog)
	assertEqualStores(t, seq.Stores[refSeq.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[refSeq.B], got.Stores[f.B], f.B, f.Val)
}

// TestPlanReplayDeterministic: two runs are byte-identical.
func TestPlanReplayDeterministic(t *testing.T) {
	run := func() (realm.Time, realm.Stats) {
		f := progtest.NewFigure2(48, 8, 6)
		res, _ := runCRPlan(t, f.Prog, 4, 4, cr.PointToPoint, ir.ExecModeled)
		return res.Elapsed, res.Stats
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("SPMD run not deterministic: %v/%+v vs %v/%+v", e1, s1, e2, s2)
	}
}
