package spmd

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// TestShareSingleCapture is the counter guarantee: plan capture is O(1)
// per run state — exactly one shared capture, specialized to every shard —
// for any shard count, and the stores equal sequential semantics.
func TestShareSingleCapture(t *testing.T) {
	const trip = 6
	for _, shards := range []int{2, 4, 8} {
		for _, mode := range []ir.ExecMode{ir.ExecModeled, ir.ExecReal} {
			f := progtest.NewFigure2(48, 8, trip)
			seq := ir.ExecSequential(f.Prog)
			got, stats := runCRPlan(t, f.Prog, shards, shards, cr.PointToPoint, mode)
			requirePlanCounters(t, fmt.Sprintf("shards=%d mode %v", shards, mode), stats, shards, trip)
			if mode == ir.ExecReal {
				assertEqualStores(t, seq.Stores[f.A], got.Stores[f.A], f.A, f.Val)
				assertEqualStores(t, seq.Stores[f.B], got.Stores[f.B], f.B, f.Val)
			}
		}
	}
}

// TestShareRaggedSpecializes is the corner case: a partition whose owned
// blocks are unequal (7 colors over 3 shards) specializes the shared
// capture like any other — owned color k of shard s is still
// Domain[OwnedBase[s]+k] — under both lowerings, with and without
// aggregation, and its stores equal sequential semantics. The schedules
// are pinned by TestLoopShapeScheduleGolden.
func TestShareRaggedSpecializes(t *testing.T) {
	const shards, nodes, trip = 3, 3, 6
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for _, agg := range []bool{false, true} {
			label := fmt.Sprintf("ragged %v agg=%v", sync, agg)
			f := progtest.NewFigure2(42, 7, trip)
			seq := ir.ExecSequential(f.Prog)
			plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards, Sync: sync, Agg: agg})
			if err != nil {
				t.Fatal(err)
			}
			eng := New(realm.MustNewSim(testConfig(nodes)), f.Prog, ir.ExecReal, plans)
			got, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			requirePlanCounters(t, label, eng.TraceStats(), shards, trip)
			assertEqualStores(t, seq.Stores[f.A], got.Stores[f.A], f.A, f.Val)
			assertEqualStores(t, seq.Stores[f.B], got.Stores[f.B], f.B, f.Val)
		}
	}
}

// TestShareFailoverShipsTrace: a crash recovered by shard failover must
// not re-capture when sharing is on — the shared capture survives the run
// state rebuild, the restarted shards receive it as a real DES message
// (with latency and bandwidth cost), and every shard re-specializes. The
// recovered store contents stay bitwise equal to sequential semantics.
func TestShareFailoverShipsTrace(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}
	run := func(fp *realm.FaultPlan) (*Result, TraceStats, *progtest.Figure2) {
		f := progtest.NewFigure2(48, 8, 8)
		plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards})
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

	res0, stats0, _ := run(nil)
	requirePlanCounters(t, "fault-free", stats0, shards, 8)
	if res0.Stats.TraceShips != 0 {
		t.Fatalf("fault-free run shipped traces: %+v", res0.Stats)
	}

	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: res0.Elapsed / 2}}}
	got, stats, f := run(fp)

	if got.Faults == nil || len(got.Faults.Crashes) != 1 || got.Faults.Restarts < 1 {
		t.Fatalf("fault report = %+v, want 1 crash and at least 1 restart", got.Faults)
	}
	// Zero re-capture across the whole faulty run: the shared capture is
	// keyed on the engine, not the run state, so failover re-specializes.
	if stats.Captures != 1 {
		t.Errorf("failover re-captured: %+v, want the single pre-crash capture only", stats)
	}
	if stats.Specializations <= shards {
		t.Errorf("failover specialized %d plans, want > %d (rebuild re-specializes every shard)", stats.Specializations, shards)
	}
	if stats.Invalidations == 0 {
		t.Errorf("failover rebuild discarded no plans: %+v", stats)
	}
	if stats.Ships == 0 || stats.ShippedBytes == 0 {
		t.Errorf("failover shipped nothing: %+v", stats)
	}
	if got.Stats.TraceShips != int64(stats.Ships) || got.Stats.TraceShipBytes != stats.ShippedBytes {
		t.Errorf("DES ship stats %d/%d don't match engine counters %+v", got.Stats.TraceShips, got.Stats.TraceShipBytes, stats)
	}
	// Shipping is a real message: it costs virtual time over the fault-free
	// run (on top of the restart itself).
	if got.Elapsed <= res0.Elapsed {
		t.Errorf("faulty run Elapsed %v <= fault-free %v; recovery and shipping should cost time", got.Elapsed, res0.Elapsed)
	}

	// Recovered contents match sequential semantics bitwise.
	refSeq := progtest.NewFigure2(48, 8, 8)
	seq := ir.ExecSequential(refSeq.Prog)
	assertEqualStores(t, seq.Stores[refSeq.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[refSeq.B], got.Stores[f.B], f.B, f.Val)
}
