// Schedule goldens for the loops whose issue order is easiest to perturb:
// the barrier lowering (plain, aggregated and pruned, on every evaluation
// app at 2x overdecomposition), a trip-1 loop, and a ragged shard
// partition. Each pin is the exact virtual elapsed time plus the DES
// counters of one Modeled run; any change to the Sim call sequence a shard
// issues shows up as a diff here.
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// scheduleKey renders a run's elapsed time and DES counters as one
// comparable line.
func scheduleKey(res *spmd.Result) string {
	s := res.Stats
	return fmt.Sprintf("elapsed=%d msgs=%d bytes=%d local=%d tasks=%d events=%d ships=%d shipbytes=%d agg=%d/%d",
		res.Elapsed, s.Messages, s.BytesSent, s.LocalCopies, s.TasksRun, s.Events,
		s.TraceShips, s.TraceShipBytes, s.AggGroups, s.AggSavedMessages)
}

// runSchedule compiles prog with opts (certifying and applying the prune
// set when prune is set) and runs it on a DES with four cores per node.
func runSchedule(t *testing.T, prog *ir.Program, nodes int, opts cr.Options, prune bool, mode ir.ExecMode) *spmd.Result {
	t.Helper()
	plans, err := spmd.CompileAll(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prune {
		for _, plan := range plans {
			info, rep, err := verify.PlanPrune(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("prune pass rejected the schedule: %v", rep.Findings)
			}
			plan.Prune = info
		}
	}
	cfg := realm.DefaultConfig(nodes)
	cfg.CoresPerNode = 4
	res, err := spmd.New(realm.MustNewSim(cfg), prog, mode, plans).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// barrierGolden was recorded with the interpreted barrier issue loop.
var barrierGolden = map[string]string{
	"stencil/barrier":        "elapsed=122322 msgs=78 bytes=31552 local=38 tasks=156 events=398 ships=0 shipbytes=0 agg=0/0",
	"stencil/barrier+agg":    "elapsed=113338 msgs=60 bytes=31552 local=26 tasks=126 events=308 ships=0 shipbytes=0 agg=30/18",
	"stencil/barrier+prune":  "elapsed=122322 msgs=78 bytes=31552 local=38 tasks=156 events=398 ships=0 shipbytes=0 agg=0/0",
	"miniaero/barrier":       "elapsed=8491408 msgs=170 bytes=9344 local=78 tasks=480 events=1096 ships=0 shipbytes=0 agg=0/0",
	"miniaero/barrier+agg":   "elapsed=8491416 msgs=106 bytes=9344 local=46 tasks=384 events=808 ships=0 shipbytes=0 agg=96/64",
	"miniaero/barrier+prune": "elapsed=8491408 msgs=170 bytes=9344 local=78 tasks=480 events=1096 ships=0 shipbytes=0 agg=0/0",
	"pennant/barrier":        "elapsed=9550656 msgs=96 bytes=19184 local=83 tasks=315 events=768 ships=0 shipbytes=0 agg=0/0",
	"pennant/barrier+agg":    "elapsed=9533880 msgs=60 bytes=19184 local=50 tasks=246 events=561 ships=0 shipbytes=0 agg=30/36",
	"pennant/barrier+prune":  "elapsed=9550656 msgs=95 bytes=19184 local=82 tasks=315 events=766 ships=0 shipbytes=0 agg=0/0",
	"circuit/barrier":        "elapsed=42976083 msgs=186 bytes=16176 local=86 tasks=360 events=964 ships=0 shipbytes=0 agg=0/0",
	"circuit/barrier+agg":    "elapsed=42955125 msgs=105 bytes=16176 local=50 tasks=243 events=613 ships=0 shipbytes=0 agg=60/81",
	"circuit/barrier+prune":  "elapsed=42976080 msgs=186 bytes=16176 local=86 tasks=360 events=964 ships=0 shipbytes=0 agg=0/0",
}

// TestBarrierScheduleGolden pins the barrier lowering on every app at 4
// nodes with two pieces per shard, plain, with copy aggregation, and with
// certified sync pruning.
func TestBarrierScheduleGolden(t *testing.T) {
	const nodes = 4
	for _, app := range pruneApps {
		for _, v := range []struct {
			name       string
			agg, prune bool
		}{{"barrier", false, false}, {"barrier+agg", true, false}, {"barrier+prune", false, true}} {
			name := app.name + "/" + v.name
			t.Run(name, func(t *testing.T) {
				opts := cr.Options{NumShards: nodes, Sync: cr.BarrierSync, Agg: v.agg}
				got := scheduleKey(runSchedule(t, app.build(2*nodes), nodes, opts, v.prune, ir.ExecModeled))
				if want := barrierGolden[name]; got != want {
					t.Errorf("schedule drifted:\n got  %s\n want %s", got, want)
				}
			})
		}
	}
}

// shapeGolden was recorded when trip-1 and ragged loops ran interpreted.
var shapeGolden = map[string]string{
	"trip1/p2p":          "elapsed=39190 msgs=12 bytes=528 local=16 tasks=24 events=76 ships=0 shipbytes=0 agg=0/0",
	"trip1/barrier":      "elapsed=39190 msgs=12 bytes=528 local=16 tasks=24 events=78 ships=0 shipbytes=0 agg=0/0",
	"ragged/p2p":         "elapsed=327234 msgs=43 bytes=1632 local=76 tasks=252 events=553 ships=0 shipbytes=0 agg=0/0",
	"ragged/p2p+agg":     "elapsed=303234 msgs=43 bytes=1632 local=28 tasks=204 events=409 ships=0 shipbytes=0 agg=18/0",
	"ragged/barrier":     "elapsed=327234 msgs=43 bytes=1632 local=76 tasks=252 events=565 ships=0 shipbytes=0 agg=0/0",
	"ragged/barrier+agg": "elapsed=303234 msgs=43 bytes=1632 local=28 tasks=204 events=421 ships=0 shipbytes=0 agg=18/0",
}

// TestLoopShapeScheduleGolden pins a trip-1 loop and the ragged Figure 2
// program (7 colors over 3 shards) under both lowerings, and checks their
// Real-mode stores against sequential semantics.
func TestLoopShapeScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, nt        int64
		trip, shards int
		sync         cr.SyncMode
		agg          bool
	}{
		{"trip1/p2p", 24, 4, 1, 2, cr.PointToPoint, false},
		{"trip1/barrier", 24, 4, 1, 2, cr.BarrierSync, false},
		{"ragged/p2p", 42, 7, 6, 3, cr.PointToPoint, false},
		{"ragged/p2p+agg", 42, 7, 6, 3, cr.PointToPoint, true},
		{"ragged/barrier", 42, 7, 6, 3, cr.BarrierSync, false},
		{"ragged/barrier+agg", 42, 7, 6, 3, cr.BarrierSync, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := cr.Options{NumShards: tc.shards, Sync: tc.sync, Agg: tc.agg}
			f := progtest.NewFigure2(tc.n, tc.nt, tc.trip)
			got := scheduleKey(runSchedule(t, f.Prog, tc.shards, opts, false, ir.ExecModeled))
			if want := shapeGolden[tc.name]; got != want {
				t.Errorf("schedule drifted:\n got  %s\n want %s", got, want)
			}

			f = progtest.NewFigure2(tc.n, tc.nt, tc.trip)
			seq := ir.ExecSequential(progtest.NewFigure2(tc.n, tc.nt, tc.trip).Prog)
			res := runSchedule(t, f.Prog, tc.shards, opts, false, ir.ExecReal)
			assertStoresBitwiseEqual(t, seq.Stores, res.Stores)
		})
	}
}
