package spmd

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// runReplicated executes one compiled loop: initialization copies (Figure
// 4b lines 2-4), hoisted loop-invariant copies, the shard tasks themselves,
// and finalization copies back to the parent regions (lines 14-15). With
// recovery disabled (the default) the loop runs as one unguarded epoch —
// the exact fault-free schedule; with recovery enabled it runs in
// checkpointed epochs under runRecoverable.
func (e *Engine) runReplicated(ctl realm.Agent, plan *cr.Compiled) {
	rec := e.Recov.normalized(plan.Loop.Trip)
	if rec.MaxRetries > 0 {
		e.runRecoverable(ctl, plan, rec)
		return
	}
	trip := plan.Loop.Trip
	st := newRunState(e, plan, trip, e.liveAssign(plan.Opts.NumShards))
	e.initPhase(ctl, st, false)
	e.runEpoch(ctl, st, 0, trip, false)
	e.finalizePhase(ctl, st, false)
	e.iterTimes[plan.Loop] = st.iterTimes
	e.mergeEnv(st)
}

// initPhase populates every used partition's every subregion instance from
// the parent region's data on its owner node, then runs the hoisted
// loop-invariant copies. Under recovery it reports false as soon as a
// watched node fails (the phase is idempotent and simply reruns).
func (e *Engine) initPhase(ctl realm.Agent, st *runState, guarded bool) bool {
	plan := st.plan
	var initEvs []realm.Event
	for _, part := range plan.UsedParts {
		fields := plan.InstFields[part]
		for _, col := range plan.Domain {
			sub := part.Sub(col)
			key := instKey{part.ID(), col}
			owner := st.ownerNode(col)
			// A certifier-licensed dead init (every read of the instance is
			// covered by later overwrites) skips the population transfer; the
			// store is still created so the instance exists — it stays zero
			// until the first compiler-inserted copy lands.
			dead := plan.Prune.SkipInit(part, plan.ColorIdx[col])
			if e.Mode == ir.ExecReal {
				store := region.NewStore(sub.IndexSpace(), e.Prog.FieldSpaceOf(sub))
				if !dead {
					for _, f := range fields {
						store.CopyFieldFrom(e.global[sub.Root()], f, sub.IndexSpace())
					}
				}
				st.inst[key] = store
			}
			if dead {
				continue
			}
			bytes := sub.Volume() * e.Over.EltBytes * int64(len(fields))
			initEvs = append(initEvs, e.Sim.CopyBytes(0, owner, bytes, realm.NoEvent, nil))
		}
	}
	if !e.phaseWait(ctl, st, e.Sim.Merge(initEvs...), guarded) {
		return false
	}

	// Hoisted loop-invariant copies run once before the shards start.
	for _, cp := range plan.InitCopies {
		var evs []realm.Event
		for _, pr := range cp.Pairs {
			bytes := pr.Overlap.Volume() * e.Over.EltBytes * int64(len(cp.Fields))
			var body func()
			if e.Mode == ir.ExecReal {
				src := st.inst[instKey{cp.Src.ID(), pr.Src}]
				dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
				fields, overlap := cp.Fields, pr.Overlap
				body = func() {
					for _, f := range fields {
						dst.CopyFieldFrom(src, f, overlap)
					}
				}
			}
			evs = append(evs, e.Sim.CopyBytes(
				st.ownerNode(pr.Src), st.ownerNode(pr.Dst),
				bytes, realm.NoEvent, body))
		}
		if !e.phaseWait(ctl, st, e.Sim.Merge(evs...), guarded) {
			return false
		}
	}
	return true
}

// runEpoch launches the shard threads over iterations [lo, hi) and waits
// for them (§3.5). Under recovery a node failure aborts the wait and kills
// the surviving shard threads so the epoch can be retried from the last
// checkpoint.
func (e *Engine) runEpoch(ctl realm.Agent, st *runState, lo, hi int, guarded bool) bool {
	plan := st.plan
	ns := plan.Opts.NumShards
	st.shardDone = make([]realm.Event, ns)
	for s := range st.shardDone {
		st.shardDone[s] = e.Sim.NewUserEvent()
	}
	// Capture the entry environment on the control thread: shard 0 writes
	// st.curEnv back when its range ends, which may overlap another shard's
	// startup on the native backend.
	baseEnv := st.curEnv
	threads := make([]realm.Agent, ns)
	for s := 0; s < ns; s++ {
		s := s
		threads[s] = e.Sim.SpawnOn(fmt.Sprintf("shard-%d", s), st.nodeOfShard(s), 0, func(th realm.Agent) {
			sh := &shard{st: st, me: s, th: th, table: st.tables[s], baseEnv: baseEnv}
			sh.runRange(lo, hi)
			e.Sim.Trigger(st.shardDone[s])
		})
	}
	if e.phaseWait(ctl, st, e.Sim.Merge(st.shardDone...), guarded) {
		return true
	}
	// Only the guarded (recovery) path reaches here, and recovery is gated
	// to backends with the fault-tolerance extension (killable agents).
	fx := e.fx()
	for _, th := range threads {
		fx.KillAgent(th)
	}
	return false
}

// finalizePhase copies the disjoint written partitions' instances back to
// the parent regions on node 0. The copies overwrite whole subregions, so
// a half-finished finalization is safely redone after recovery.
func (e *Engine) finalizePhase(ctl realm.Agent, st *runState, guarded bool) bool {
	plan := st.plan
	var finEvs []realm.Event
	for _, part := range plan.WrittenDisjoint {
		fields := plan.InstFields[part]
		for _, col := range plan.Domain {
			sub := part.Sub(col)
			var body func()
			if e.Mode == ir.ExecReal {
				src := st.inst[instKey{part.ID(), col}]
				dst := e.global[sub.Root()]
				ispace := sub.IndexSpace()
				fs := fields
				body = func() {
					for _, f := range fs {
						dst.CopyFieldFrom(src, f, ispace)
					}
				}
			}
			bytes := sub.Volume() * e.Over.EltBytes * int64(len(fields))
			finEvs = append(finEvs, e.Sim.CopyBytes(st.ownerNode(col), 0, bytes, realm.NoEvent, body))
		}
	}
	return e.phaseWait(ctl, st, e.Sim.Merge(finEvs...), guarded)
}

// mergeEnv folds the replicated scalar state back into the control
// environment; scalars converge across shards, so shard 0's bindings are
// the program's.
func (e *Engine) mergeEnv(st *runState) {
	if st.plan.Opts.NumShards > 0 {
		for k, v := range st.curEnv {
			e.env[k] = v
		}
	}
}

// shard is the per-shard execution state: the thread, the shard's block of
// the domain, its instance table, and its replicated scalar environment.
type shard struct {
	st    *runState
	me    int
	th    realm.Agent
	table *shardTable
	// baseEnv is the replicated scalar environment at epoch entry, captured
	// by the control thread before the shard agents start.
	baseEnv ir.MapEnv
	env     *shardEnv
	// ops collects the events of the current iteration.
	ops []realm.Event
	// Scratch buffers recycled across the shard's issue loops. Merge does
	// not retain its inputs, so a buffer can be reused as soon as the Merge
	// consuming it returns.
	presBuf []realm.Event
	evBuf   []realm.Event
	wrBuf   []realm.Event
	doneBuf []realm.Event
	ctxBuf  []*ir.TaskCtx
}

// runRange replicates the loop's control flow over the shard's owned
// colors for iterations [lo, hi) — the whole trip when recovery is off,
// one epoch of it otherwise. The shard resolves its plan once and replays
// it every iteration (see plan.go). The scalar environment starts from the
// run state's current bindings (the loop entry environment, or the
// restored checkpoint's) and shard 0 publishes them back at the end of the
// range.
func (sh *shard) runRange(lo, hi int) {
	st := sh.st
	plan := st.plan
	e := st.e
	sh.env = newShardEnv(sh.th, sh.baseEnv)

	window := e.Over.Window
	if window < 1 {
		window = 1
	}
	sp := st.planFor(sh)
	// Replayed iterations are tallied here and published once, so shard
	// agents do not contend on planMu every iteration. The publish is
	// deferred so a shard killed by failover still reports what it issued.
	replayed := 0
	defer func() {
		e.planMu.Lock()
		e.traceStats.ReplayedIters += replayed
		e.planMu.Unlock()
	}()
	n := hi - lo
	iterDone := make([]realm.Event, n)
	for i := 0; i < n; i++ {
		t := lo + i
		if i >= window {
			sh.th.WaitEvent(iterDone[i-window])
		}
		sh.env.set(plan.Loop.Var, float64(t))
		sh.ops = sh.ops[:0]
		sh.replayIter(sp, t)
		replayed++
		iterDone[i] = e.Sim.Merge(sh.ops...)
		st.recordIter(t, iterDone[i])
	}
	for i := max(0, n-window); i < n; i++ {
		sh.th.WaitEvent(iterDone[i])
	}
	if sh.me == 0 {
		st.curEnv = sh.env.snapshot()
	}
}
