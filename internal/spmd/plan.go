package spmd

// Shard plans: how a shard issues its work. A compiled loop's body is
// structurally identical in every iteration, so everything a shard would
// resolve per iteration that is NOT event-valued (instance-table lookups,
// copy pair grouping, owner nodes, transfer sizes, kernel cost, Real-mode
// store bindings) is resolved once into an immutable per-shard plan, and
// every iteration replays it. This is the only issue path, for both sync
// lowerings and with or without aggregation and pruning.
//
// Resolution is two-phase. The shard-independent half — kernel durations
// per color, transfer sizes per pair — is a pure function of the compiled
// plan's specialization tables (cr.SpecTable) and the overhead model, so
// the engine captures it ONCE per loop as a sharedTrace, and each shard
// instantiates its concrete plan by table substitution (specialize): owned
// colors map to dense table slots through the compiler's OwnedBase
// offsets, nodes come from the run state's assignment, and only the
// inherently shard-local state (dependence-table entries, Real-mode
// bindings) is resolved per shard. A ragged block partition is not
// special: the compiler gives shard s the contiguous slice
// Domain[OwnedBase[s]:OwnedBase[s+1]], so owned color k is always
// Domain[OwnedBase[s]+k].
//
// The event graph itself is rebuilt each iteration — events are the values
// that change — from the plan's resolved pointers: replay walks flat
// slices and instState pointers. Scalar statements stay live during replay
// (their values may be data-dependent; only structural resolution is
// memoized).
//
// Invalidation is by construction rather than by fingerprint: plans are
// keyed by (runState, shard), and everything they resolve — tables, node
// assignment, instance stores — is immutable for the runState's lifetime.
// The one thing that changes resolution is shard failover, and that
// rebuilds the runState, discarding every plan with it. The sharedTrace
// survives the rebuild (it depends on nothing the failure changed), and
// the recovery layer ships it to the restarted shard's node as a real
// message (realm.ShipTrace) so the shard specializes and resumes without
// re-capturing.

import (
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// TraceStats counts the shard-plan activity of one engine run.
type TraceStats struct {
	// Captures counts shared captures: one per compiled loop per engine
	// run, independent of the shard count.
	Captures int
	// Specializations counts shard plans instantiated from a shared capture
	// by table substitution: one per shard per run state.
	Specializations int
	// ReplayedIters is the total number of shard-iterations issued from a
	// plan.
	ReplayedIters int
	// Invalidations counts shard plans discarded when failover rebuilt the
	// run state under a new placement.
	Invalidations int
	// Ships counts shared traces shipped to restarted shards on failover;
	// ShippedBytes is their total modeled wire size.
	Ships        int
	ShippedBytes int64
}

// sharedTrace is the shard-independent half of a compiled loop's plan:
// kernel durations dense by collective color index and transfer sizes dense
// by pair index. Captured once per loop per engine from the compiler's
// specialization tables — no Sim calls, no shard state — so it survives
// failover rebuilds and is what the recovery layer ships to restarted
// shards.
type sharedTrace struct {
	ops []sharedOp
	// bytes is the modeled wire size of the trace when shipped on failover:
	// 8 bytes per table entry plus a fixed per-op header.
	bytes int64
}

// sharedOp mirrors cr.BodyOp; at most one field is set (scalar ops carry no
// shared state).
type sharedOp struct {
	launch *sharedLaunch
	cp     *sharedCopy
}

type sharedLaunch struct {
	durBase []realm.Time // kernel cost before noise, dense by ColorIdx
}

type sharedCopy struct {
	bytes []int64 // transfer size, dense by pair index
}

// sharedOpHeader is the modeled per-op framing cost of a shipped trace.
const sharedOpHeader = 16

// sharedFor returns the engine's shared capture of plan, building it on
// first use. The build reads only the compiler's specialization tables and
// the overhead model, so one capture serves every shard, every runState,
// and every failover rebuild of the engine's run.
func (e *Engine) sharedFor(plan *cr.Compiled) *sharedTrace {
	if shr, ok := e.shared[plan]; ok {
		return shr
	}
	shr := &sharedTrace{ops: make([]sharedOp, len(plan.Body))}
	for i, op := range plan.Body {
		spec := &plan.Spec.Ops[i]
		switch {
		case op.Launch != nil:
			sl := &sharedLaunch{durBase: make([]realm.Time, len(spec.Launch.CostVol))}
			for ci, vol := range spec.Launch.CostVol {
				sl.durBase[ci] = realm.Time(op.Launch.Task.Cost(vol) / float64(e.Over.KernelCores))
			}
			shr.ops[i].launch = sl
			shr.bytes += int64(8*len(sl.durBase)) + sharedOpHeader
		case op.Copy != nil:
			scale := e.Over.EltBytes * int64(len(op.Copy.Fields))
			sc := &sharedCopy{bytes: make([]int64, len(spec.Copy.PairVols))}
			for k, v := range spec.Copy.PairVols {
				sc.bytes[k] = v * scale
			}
			shr.ops[i].cp = sc
			shr.bytes += int64(8*len(sc.bytes)) + sharedOpHeader
		default:
			shr.bytes += sharedOpHeader
		}
	}
	if e.shared == nil {
		e.shared = make(map[*cr.Compiled]*sharedTrace)
	}
	e.shared[plan] = shr
	e.traceStats.Captures++
	return shr
}

// shardPlan is one shard's memoized iteration: the body ops with all
// non-event resolution done.
type shardPlan struct {
	ops []planOp
}

// planOp mirrors cr.BodyOp; exactly one field is set. Under Options.Agg a
// whole exchange phase is resolved into one phase entry at its head op
// and the phase's remaining copy ops emit no planOp at all.
type planOp struct {
	set    *ir.SetScalar
	launch *launchPlan
	cp     *copyPlan
	phase  *phasePlan
}

// launchPlan is a launch op resolved for one shard: its owned colors with
// per-color argument states and kernel costs.
type launchPlan struct {
	l      *ir.Launch
	reduce bool
	nodeID int
	colors []launchColorPlan
}

type launchColorPlan struct {
	col     geometry.Point
	colIdx  int        // position in the global domain (collective index)
	durBase realm.Time // kernel cost before noise
	args    []argPlan
	// Real-mode bindings: the physical arguments (iteration-invariant —
	// ir.PhysArg is immutable, so the slice is shared by every iteration's
	// task context) and the reduce-temp re-initializers.
	physArgs []ir.PhysArg
	reinits  []func()
}

// argPlan is one region argument's dependence state: reads append to
// readers, writes and reductions advance lastWrite (reductions against the
// launch's private temporary, which specialization resolved into st).
type argPlan struct {
	priv ir.Privilege
	st   *instState
}

// copyPlan is a copy op resolved for one shard: its slice of the pair work
// with states, nodes, sizes, and Real-mode bodies bound.
type copyPlan struct {
	id    int
	works []copyWorkPlan
}

type copyWorkPlan struct {
	consumer             bool
	dstState             *instState // set when consumer
	groupStart, groupEnd int        // absolute pair index range of the group
	prods                []copyProdPlan
}

type copyProdPlan struct {
	copyID           int // owning copy op's ID (members of a phase group span ops)
	pairIdx          int
	chain            bool // fold-chain link: also wait on pairIdx-1's done
	reduce           bool // the owning op is a reduction copy
	srcState         *instState
	bytes            int64
	srcNode, dstNode int
	body             func() // Real-mode transfer body; iteration-invariant
}

// copyAggPlan is one coalesced transfer: every pair this shard produces
// toward one destination shard across one exchange phase, merged into a
// single message. The members keep their per-pair resolution (dependence
// state, sync slots keyed by their own op's ID, chain links, bodies);
// bytes is the summed payload and body runs the member writes in member
// order — the unaggregated issue order — so stores are bitwise identical
// aggregation on or off.
type copyAggPlan struct {
	members          []copyProdPlan
	bytes            int64
	srcNode, dstNode int
	body             func() // merged Real-mode body; iteration-invariant
}

// phasePlan is one exchange phase resolved for one shard under
// aggregation: the per-op consumer work (per-pair sync structure survives
// coalescing untouched) and the shard's coalesced producer schedule over
// the whole phase. It is emitted at the phase's head op; the phase's other
// copy ops emit no planOp.
type phasePlan struct {
	cons []phaseConsumerPlan
	aggs []copyAggPlan
}

// phaseConsumerPlan is one phase op's consumer-side work for this shard.
type phaseConsumerPlan struct {
	id    int // the op's CopyOp.ID
	works []copyWorkPlan
}

// planFor returns the shard's memoized plan, specializing the engine's
// shared capture on first use.
func (st *runState) planFor(sh *shard) *shardPlan {
	e := st.e
	// planMu serializes specialization across shard agents (they resolve
	// concurrently on the native backend) and guards the engine's
	// shared-capture cache and counters. Specialization happens once per
	// shard per placement, so the serialization is off the steady-state
	// path.
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if sp := st.plans[sh.me]; sp != nil {
		return sp
	}
	sp := st.specialize(sh, e.sharedFor(st.plan))
	e.traceStats.Specializations++
	st.plans[sh.me] = sp
	return sp
}

// dropPlans discards every memoized shard plan and reports how many were
// live: the trace invalidation of a failover rebuild, after which the new
// placement re-specializes the surviving shared capture.
func (st *runState) dropPlans() int {
	n := 0
	for i, sp := range st.plans {
		if sp != nil {
			st.plans[i] = nil
			n++
		}
	}
	return n
}

// specialize instantiates one shard's concrete plan from the shared
// capture by table substitution: owned colors map to dense slots through
// the compiler's OwnedBase offset, durations and transfer sizes come from
// the shared tables, nodes from the runState's assignment. Only the
// shard-local state (dependence-table entries, Real-mode bindings) is
// resolved here.
func (st *runState) specialize(sh *shard, shr *sharedTrace) *shardPlan {
	sp := &shardPlan{ops: make([]planOp, 0, len(st.plan.Body))}
	spec := &st.plan.Spec
	for i, op := range st.plan.Body {
		switch {
		case op.Set != nil:
			sp.ops = append(sp.ops, planOp{set: op.Set})
		case op.Launch != nil:
			sp.ops = append(sp.ops, planOp{launch: st.specializeLaunch(sh, op.Launch, shr.ops[i].launch)})
		case op.Copy != nil:
			if st.plan.Opts.Agg {
				// The whole exchange phase resolves at its head op; the
				// phase's remaining copies emit nothing.
				if ph := &spec.Phases[spec.PhaseOf[i]]; ph.Start == i {
					sp.ops = append(sp.ops, planOp{phase: st.specializePhase(sh, ph, shr)})
				}
				continue
			}
			sp.ops = append(sp.ops, planOp{cp: st.specializeCopy(sh, op.Copy, shr.ops[i].cp)})
		}
	}
	return sp
}

// tempStore returns the Real-mode reduce temporary for tk, creating it on
// first use. The temps map is shared across shards, so creation is locked;
// the returned store itself is only ever touched under event ordering.
func (st *runState) tempStore(tk tempKey, sub *region.Region) *region.Store {
	st.mu.Lock()
	buf, ok := st.temps[tk]
	if !ok {
		buf = region.NewStore(sub.IndexSpace(), st.e.Prog.FieldSpaceOf(sub))
		st.temps[tk] = buf
	}
	st.mu.Unlock()
	return buf
}

// specializeLaunch resolves one launch for the shard: owned color k is
// dense slot OwnedBase[shard]+k, and its duration was computed once for
// all shards. Each color's argument states and Real-mode bindings (over
// instance stores; reduce arguments get persistent per-(launch, arg,
// color) temporaries re-initialized to the identity at task start, §4.3)
// are resolved here.
func (st *runState) specializeLaunch(sh *shard, l *ir.Launch, shl *sharedLaunch) *launchPlan {
	e := st.e
	lp := &launchPlan{
		l:      l,
		reduce: l.Reduce != nil,
		nodeID: st.nodeOfShard(sh.me),
	}
	base := st.plan.Spec.OwnedBase[sh.me]
	for k, col := range st.plan.Owned[sh.me] {
		cp := launchColorPlan{
			col:     col,
			colIdx:  base + k,
			durBase: shl.durBase[base+k],
		}
		for ai, a := range l.Args {
			param := l.Task.Params[ai]
			ap := argPlan{priv: param.Priv}
			if param.Priv == ir.PrivReduce {
				ap.st = sh.table.getTemp(tempKey{l, ai, col})
			} else {
				ap.st = sh.table.get(instKey{a.Part.ID(), col})
			}
			cp.args = append(cp.args, ap)
			if e.Mode != ir.ExecReal {
				continue
			}
			sub := a.Part.Sub(col)
			if param.Priv == ir.PrivReduce {
				buf := st.tempStore(tempKey{l, ai, col}, sub)
				cp.physArgs = append(cp.physArgs, ir.NewPhysArg(sub, buf, param))
				fields, op := param.Fields, param.Op
				cp.reinits = append(cp.reinits, func() {
					for _, f := range fields {
						buf.Fill(f, op.Identity())
					}
				})
			} else {
				cp.physArgs = append(cp.physArgs, ir.NewPhysArg(sub, st.inst[instKey{a.Part.ID(), col}], param))
			}
		}
		lp.colors = append(lp.colors, cp)
	}
	return lp
}

// resolveProdPlan fills one produced pair's dependence state and Real-mode
// transfer body. Shared by the unaggregated and aggregated copy plans.
func (st *runState) resolveProdPlan(sh *shard, cp *cr.CopyOp, k int, chain bool, bytes int64, srcNode, dstNode int) copyProdPlan {
	e := st.e
	pr := cp.Pairs[k]
	p := copyProdPlan{
		copyID:  cp.ID,
		pairIdx: k,
		chain:   chain,
		reduce:  cp.Reduce != region.ReduceNone,
		bytes:   bytes,
		srcNode: srcNode,
		dstNode: dstNode,
	}
	if cp.Reduce == region.ReduceNone {
		p.srcState = sh.table.get(instKey{cp.Src.ID(), pr.Src})
		if e.Mode == ir.ExecReal {
			src := st.inst[instKey{cp.Src.ID(), pr.Src}]
			dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
			fields, overlap := cp.Fields, pr.Overlap
			p.body = func() {
				for _, f := range fields {
					dst.CopyFieldFrom(src, f, overlap)
				}
			}
		}
	} else {
		p.srcState = sh.table.getTemp(tempKey{cp.SrcLaunch, cp.SrcArg, pr.Src})
		if e.Mode == ir.ExecReal {
			buf := st.tempStore(tempKey{cp.SrcLaunch, cp.SrcArg, pr.Src}, cp.Src.Sub(pr.Src))
			dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
			fields, op, overlap := cp.Fields, cp.Reduce, pr.Overlap
			p.body = func() {
				for _, f := range fields {
					dst.ReduceFieldFrom(buf, f, op, overlap)
				}
			}
		}
	}
	return p
}

// consumerWork resolves the shard's consumer-side work of one copy op: the
// destination state of each pair group whose destination it owns.
func (st *runState) consumerWork(sh *shard, cp *cr.CopyOp, work cr.SpecWork) copyWorkPlan {
	w := copyWorkPlan{consumer: work.Consumer, groupStart: work.GroupStart, groupEnd: work.GroupEnd}
	if work.Consumer {
		w.dstState = sh.table.get(instKey{cp.Dst.ID(), cp.Pairs[work.GroupStart].Dst})
	}
	return w
}

// specializeCopy resolves one copy op for the shard from the compiler's
// per-shard work lists: transfer sizes come from the shared capture, and
// endpoint nodes from the compiler's pair-endpoint shard tables composed
// with the runState's assignment.
func (st *runState) specializeCopy(sh *shard, cp *cr.CopyOp, shc *sharedCopy) *copyPlan {
	spec := st.plan.Spec.CopyByID[cp.ID]
	out := &copyPlan{id: cp.ID}
	reduce := cp.Reduce != region.ReduceNone
	for _, work := range spec.PerShard[sh.me] {
		w := st.consumerWork(sh, cp, work)
		for _, k := range work.ProdPairs {
			chain := reduce && k > work.GroupStart && !st.plan.Prune.SkipChain(cp.ID, k)
			w.prods = append(w.prods, st.resolveProdPlan(sh, cp, k, chain, shc.bytes[k],
				st.assign[spec.SrcShard[k]], st.assign[spec.DstShard[k]]))
		}
		out.works = append(out.works, w)
	}
	return out
}

// specializePhase resolves one exchange phase for the shard under
// aggregation: each op's consumer work in body order, then one
// copyAggPlan per destination shard from the compiler's aggregation
// tables, members (which may span the phase's copy ops) resolved through
// resolveProdPlan.
func (st *runState) specializePhase(sh *shard, ph *cr.AggPhase, shr *sharedTrace) *phasePlan {
	pp := &phasePlan{}
	for op := ph.Start; op < ph.End; op++ {
		cp := st.plan.Body[op].Copy
		cons := phaseConsumerPlan{id: cp.ID}
		for _, work := range st.plan.Spec.CopyByID[cp.ID].PerShard[sh.me] {
			if work.Consumer {
				cons.works = append(cons.works, st.consumerWork(sh, cp, work))
			}
		}
		pp.cons = append(pp.cons, cons)
	}
	srcNode := st.nodeOfShard(sh.me)
	groups := ph.ByShard[sh.me]
	pp.aggs = make([]copyAggPlan, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		ap := copyAggPlan{srcNode: srcNode, dstNode: st.nodeOfShard(int(g.DstShard))}
		for _, mem := range g.Members {
			cp := st.plan.Body[mem.Op].Copy
			spec := st.plan.Spec.Ops[mem.Op].Copy
			k := int(mem.Pair)
			chain := cp.Reduce != region.ReduceNone && cr.AggChainExternal(cp, spec, k)
			m := st.resolveProdPlan(sh, cp, k, chain, shr.ops[mem.Op].cp.bytes[k], ap.srcNode, ap.dstNode)
			ap.bytes += m.bytes
			ap.members = append(ap.members, m)
		}
		if st.e.Mode == ir.ExecReal {
			ms := ap.members
			ap.body = func() {
				for i := range ms {
					ms[i].body()
				}
			}
		}
		pp.aggs = append(pp.aggs, ap)
	}
	return pp
}

// replayIter issues one iteration's body from the plan, dispatching copy
// ops and exchange phases to the plan's sync lowering.
func (sh *shard) replayIter(sp *shardPlan, iter int) {
	barrier := sh.st.plan.Opts.Sync == cr.BarrierSync
	for i := range sp.ops {
		op := &sp.ops[i]
		switch {
		case op.set != nil:
			sh.env.set(op.set.Name, op.set.Expr(sh.env))
		case op.launch != nil:
			sh.replayLaunch(op.launch, iter)
		case op.cp != nil && barrier:
			sh.replayCopyBarrier(op.cp, iter)
		case op.cp != nil:
			sh.replayCopy(op.cp, iter)
		case op.phase != nil && barrier:
			sh.replayPhaseBarrier(op.phase, iter)
		case op.phase != nil:
			sh.replayPhase(op.phase, iter)
		}
	}
}

// replayLaunch issues the shard's owned tasks of one index launch.
// Shard-local issue cost replaces the central control thread's — the core
// of the optimization.
func (sh *shard) replayLaunch(lp *launchPlan, iter int) {
	st := sh.st
	e := st.e
	l := lp.l

	// Scalar arguments are evaluated live every iteration: forcing a
	// future-valued scalar blocks the shard thread on its collective, and
	// that wait is part of the schedule.
	scalars := make([]float64, len(l.ScalarArgs))
	for i, ex := range l.ScalarArgs {
		scalars[i] = ex(sh.env)
	}

	// localDone/ctxs feed only the launch-level scalar reduction; they stay
	// empty for launches without one.
	localDone := sh.doneBuf[:0]
	ctxs := sh.ctxBuf[:0]
	for ci := range lp.colors {
		cp := &lp.colors[ci]
		sh.th.Elapse(e.Over.ShardLaunchBase)
		pres := sh.presBuf[:0]
		for _, a := range cp.args {
			if a.priv == ir.PrivRead {
				pres = append(pres, a.st.lastWrite)
			} else {
				pres = append(pres, a.st.lastWrite)
				pres = append(pres, a.st.readers...)
			}
		}
		dur := cp.durBase
		if e.Over.Noise != nil {
			dur = realm.Time(float64(dur) * e.Over.Noise(lp.nodeID, iter))
		}

		var body func()
		var ctx *ir.TaskCtx
		if e.Mode == ir.ExecReal {
			// The context must be per-iteration (window run-ahead keeps
			// several iterations' bodies in flight, each with its own Return
			// and scalars), but the argument bindings alias the plan's.
			ctx = &ir.TaskCtx{Color: cp.col, Scalars: scalars, Args: cp.physArgs}
			kernel := l.Task.Kernel
			reinits := cp.reinits
			body = func() {
				for _, re := range reinits {
					re()
				}
				if kernel != nil {
					kernel(ctx)
				}
			}
		}
		done := e.Sim.LaunchOn(lp.nodeID, e.Sim.Merge(pres...), dur, body)
		sh.presBuf = pres[:0]

		for _, a := range cp.args {
			if a.priv == ir.PrivRead {
				a.st.readers = append(a.st.readers, done)
			} else {
				a.st.lastWrite = done
				a.st.readers = a.st.readers[:0]
			}
		}
		if lp.reduce {
			localDone = append(localDone, done)
			ctxs = append(ctxs, ctx)
		}
		sh.ops = append(sh.ops, done)
	}
	sh.doneBuf, sh.ctxBuf = localDone[:0], ctxs[:0]

	if lp.reduce {
		// One contribution per task color (not per shard): the collective
		// folds values in participant-index order, so indexing by global
		// color keeps the fold order — and hence the floating-point result —
		// bitwise identical to the sequential semantics.
		coll := st.collFor(l, iter, l.Reduce.Op)
		op := l.Reduce.Op
		for k := range lp.colors {
			ctx := ctxs[k]
			coll.Contribute(lp.colors[k].colIdx, localDone[k], func() float64 {
				if ctx == nil {
					return op.Identity()
				}
				return ctx.Return
			})
		}
		sh.env.setFuture(l.Reduce.Into, coll.Done(), coll.Result)
		sh.ops = append(sh.ops, coll.Done())
	}
}

// replayConsumer runs the consumer side of one pair group of copy op id
// under point-to-point synchronization: release the destination's prior
// readers and writer to every pair's war event, and make the destination
// valid once every pair's done event fires. Pruned war/done edges are
// skipped.
func (sh *shard) replayConsumer(id int, w *copyWorkPlan, iter int) {
	st := sh.st
	e := st.e
	prune := st.plan.Prune
	s := w.dstState
	rel := append(sh.evBuf[:0], s.readers...)
	rel = append(rel, s.lastWrite)
	release := e.Sim.Merge(rel...)
	newWrites := append(sh.wrBuf[:0], s.lastWrite)
	for k := w.groupStart; k < w.groupEnd; k++ {
		ps := st.pairSyncFor(id, k, iter)
		if !prune.SkipWar(id, k) {
			st.connect(release, ps.war)
		}
		if !prune.SkipDone(id, k) {
			newWrites = append(newWrites, ps.done)
			sh.ops = append(sh.ops, ps.done)
		}
	}
	s.lastWrite = e.Sim.Merge(newWrites...)
	s.readers = s.readers[:0]
	sh.evBuf, sh.wrBuf = rel[:0], newWrites[:0]
}

// replayCopy issues one copy op under point-to-point synchronization
// (§3.4). Per pair group, the shard acts as consumer when it owns the
// destination (computing the write-after-read release and registering
// arrivals) and as producer for the pairs whose source it owns (issuing
// the actual transfers). Reduction applications to one destination chain
// in source order for deterministic folding; the chain predecessor may
// belong to another shard, so the link is the shared per-pair done event.
func (sh *shard) replayCopy(cpl *copyPlan, iter int) {
	st := sh.st
	e := st.e
	prune := st.plan.Prune
	for wi := range cpl.works {
		w := &cpl.works[wi]
		if w.consumer {
			sh.replayConsumer(cpl.id, w, iter)
		}
		for pi := range w.prods {
			p := &w.prods[pi]
			ps := st.pairSyncFor(cpl.id, p.pairIdx, iter)
			sh.th.Elapse(e.Over.CopySetup)
			pres := sh.presBuf[:0]
			if !prune.SkipWar(cpl.id, p.pairIdx) {
				pres = append(pres, ps.war)
			}
			pres = append(pres, p.srcState.lastWrite)
			if p.chain {
				pres = append(pres, st.pairSyncFor(cpl.id, p.pairIdx-1, iter).done)
			}
			ev := e.Sim.CopyBytes(p.srcNode, p.dstNode, p.bytes, e.Sim.Merge(pres...), p.body)
			p.srcState.readers = append(p.srcState.readers, ev)
			sh.presBuf = pres[:0]
			if prune.SkipDone(cpl.id, p.pairIdx) {
				// Done pruned: the copy's own completion joins the producer's
				// iteration merge so loop-end quiescence still covers the
				// transfer; nothing triggers or waits on ps.done.
				sh.ops = append(sh.ops, ev)
			} else {
				st.connect(ev, ps.done)
				sh.ops = append(sh.ops, ps.done)
			}
		}
	}
}

// replayPhase issues one exchange phase under point-to-point
// synchronization with per-destination aggregation (cr.Options.Agg). The
// consumer side is the unaggregated lowering verbatim, op by op in body
// order — the per-pair war/done events survive coalescing, so consumers
// release and observe exactly the same sync structure and are oblivious to
// how producers batch. The producer side then issues ONE merged transfer
// per (this shard, destination shard) group over the whole phase:
// preconditions are the union of the members' wars, source validity, and
// cross-shard fold-chain links (a same-shard chain predecessor is a member
// of the same group, ordered by the merged body's in-order member writes
// instead), the payload is the summed member bytes, and the single
// completion event fans out to every member's done. Members carry their
// own op's copy ID: phase groups span copy ops, and the per-pair sync
// slots stay keyed by the owning op. Pruning never composes with
// aggregation (Engine.Run rejects the combination), so no edge is skipped.
func (sh *shard) replayPhase(pp *phasePlan, iter int) {
	st := sh.st
	e := st.e
	for ci := range pp.cons {
		cons := &pp.cons[ci]
		for wi := range cons.works {
			sh.replayConsumer(cons.id, &cons.works[wi], iter)
		}
	}
	for ai := range pp.aggs {
		ap := &pp.aggs[ai]
		// One setup charge per group, not per member: batching the issue
		// overhead is half the point of coalescing.
		sh.th.Elapse(e.Over.CopySetup)
		pres := sh.presBuf[:0]
		for mi := range ap.members {
			m := &ap.members[mi]
			pres = append(pres, st.pairSyncFor(m.copyID, m.pairIdx, iter).war)
			pres = append(pres, m.srcState.lastWrite)
			if m.chain {
				pres = append(pres, st.pairSyncFor(m.copyID, m.pairIdx-1, iter).done)
			}
		}
		ev := e.copyAgg(ap.srcNode, ap.dstNode, ap.bytes, len(ap.members), e.Sim.Merge(pres...), ap.body)
		sh.presBuf = pres[:0]
		for mi := range ap.members {
			m := &ap.members[mi]
			m.srcState.readers = append(m.srcState.readers, ev)
			ps := st.pairSyncFor(m.copyID, m.pairIdx, iter)
			st.connect(ev, ps.done)
			sh.ops = append(sh.ops, ps.done)
		}
	}
}

// arriveRelease arrives at a copy op's first barrier once everything this
// shard has issued so far in the iteration has completed, plus all
// outstanding consumers of its destination instances (deferred execution
// means prior-iteration readers may still be in flight).
func (sh *shard) arriveRelease(b realm.BarrierOp, works []copyWorkPlan) {
	arr := append(sh.evBuf[:0], sh.ops...)
	for wi := range works {
		if w := &works[wi]; w.consumer {
			arr = append(arr, w.dstState.lastWrite)
			arr = append(arr, w.dstState.readers...)
		}
	}
	b.Arrive(sh.st.e.Sim.Merge(arr...))
	sh.evBuf = arr[:0]
}

// validateAfter makes every destination instance this shard consumes valid
// after a copy op's second barrier, and adds the barrier to the iteration.
func (sh *shard) validateAfter(b realm.BarrierOp, works []copyWorkPlan) {
	sim := sh.st.e.Sim
	for wi := range works {
		if w := &works[wi]; w.consumer {
			s := w.dstState
			s.lastWrite = sim.Merge(s.lastWrite, b.Done())
			s.readers = s.readers[:0]
		}
	}
	sh.ops = append(sh.ops, b.Done())
}

// replayCopyBarrier issues one copy op under the naive barrier lowering of
// Figure 4c: a global barrier protects write-after-read, the copies run,
// and a second barrier protects read-after-write. Kept as the ablation
// baseline for the point-to-point optimization. Reduction copies still
// chain through the shared per-pair done events, so the fold order is
// deterministic even under barriers.
func (sh *shard) replayCopyBarrier(cpl *copyPlan, iter int) {
	st := sh.st
	e := st.e
	b1 := st.barrierFor(cpl.id, iter, 0)
	b2 := st.barrierFor(cpl.id, iter, 1)
	sh.arriveRelease(b1, cpl.works)

	copyEvs := sh.wrBuf[:0]
	for wi := range cpl.works {
		w := &cpl.works[wi]
		for pi := range w.prods {
			p := &w.prods[pi]
			sh.th.Elapse(e.Over.CopySetup)
			pres := append(sh.presBuf[:0], b1.Done(), p.srcState.lastWrite)
			if p.chain {
				pres = append(pres, st.pairSyncFor(cpl.id, p.pairIdx-1, iter).done)
			}
			ev := e.Sim.CopyBytes(p.srcNode, p.dstNode, p.bytes, e.Sim.Merge(pres...), p.body)
			sh.presBuf = pres[:0]
			if p.reduce && !st.plan.Prune.SkipDone(cpl.id, p.pairIdx) {
				st.connect(ev, st.pairSyncFor(cpl.id, p.pairIdx, iter).done)
			}
			p.srcState.readers = append(p.srcState.readers, ev)
			copyEvs = append(copyEvs, ev)
		}
	}
	copyEvs = append(copyEvs, b1.Done())
	b2.Arrive(e.Sim.Merge(copyEvs...))
	sh.wrBuf = copyEvs[:0]
	sh.validateAfter(b2, cpl.works)
}

// replayPhaseBarrier issues one exchange phase under the barrier lowering
// with per-destination aggregation. A merged message spans the phase's
// copy ops, so its precondition spans their release barriers: the shard
// arrives at EVERY phase op's first barrier up front — without threading
// one op's exit barrier into the next op's entry arrival, which would
// cycle the merged copies against the barriers — then issues the merged
// transfers (waiting all the phase's first barriers, source validity, and
// cross-shard fold-chain links), then arrives at every op's second barrier
// with the phase's merged completions. Each op's second barrier thus waits
// the whole phase's copies, not only its own members': over-synchronized
// relative to the unaggregated lowering, but only ever tighter, never a
// reordering. Reduce members still trigger their per-pair done events,
// which carry the cross-shard fold order.
func (sh *shard) replayPhaseBarrier(pp *phasePlan, iter int) {
	st := sh.st
	e := st.e
	b1done := make([]realm.Event, 0, len(pp.cons))
	for ci := range pp.cons {
		b1 := st.barrierFor(pp.cons[ci].id, iter, 0)
		sh.arriveRelease(b1, pp.cons[ci].works)
		b1done = append(b1done, b1.Done())
	}

	copyEvs := make([]realm.Event, 0, len(pp.aggs))
	for ai := range pp.aggs {
		ap := &pp.aggs[ai]
		sh.th.Elapse(e.Over.CopySetup)
		pres := append(sh.presBuf[:0], b1done...)
		for mi := range ap.members {
			m := &ap.members[mi]
			pres = append(pres, m.srcState.lastWrite)
			if m.chain {
				pres = append(pres, st.pairSyncFor(m.copyID, m.pairIdx-1, iter).done)
			}
		}
		ev := e.copyAgg(ap.srcNode, ap.dstNode, ap.bytes, len(ap.members), e.Sim.Merge(pres...), ap.body)
		sh.presBuf = pres[:0]
		for mi := range ap.members {
			m := &ap.members[mi]
			m.srcState.readers = append(m.srcState.readers, ev)
			if m.reduce {
				st.connect(ev, st.pairSyncFor(m.copyID, m.pairIdx, iter).done)
			}
		}
		copyEvs = append(copyEvs, ev)
	}

	for ci := range pp.cons {
		b2 := st.barrierFor(pp.cons[ci].id, iter, 1)
		arr := append(sh.evBuf[:0], copyEvs...)
		arr = append(arr, b1done[ci])
		b2.Arrive(e.Sim.Merge(arr...))
		sh.evBuf = arr[:0]
		sh.validateAfter(b2, pp.cons[ci].works)
	}
}
