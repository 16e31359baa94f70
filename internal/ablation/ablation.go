// Package ablation measures the design choices DESIGN.md calls out, beyond
// the paper's own tables: point-to-point vs. barrier synchronization
// (§3.4), hierarchical vs. flat partitioning (§4.5), the copy-placement
// passes (§3.2), and the shard scheduling window. Run with:
//
//	go test -bench=Ablation ./internal/ablation/
package ablation

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/spmd"
)

// stencil1D builds a two-region 1-D stencil-shaped program (write OUT from
// IN's footprint, then advance IN), either with the flat aliased footprint
// partition or with the hierarchical private/ghost split of §4.5.
func stencil1D(n, nt int64, trip int, hierarchical bool) (*ir.Program, *ir.Loop) {
	p := ir.NewProgram("stencil1d")
	fs := region.NewFieldSpace("u")
	u := fs.Field("u")
	in := p.Tree.NewRegion("IN", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	out := p.Tree.NewRegion("OUT", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[in] = fs
	p.FieldSpaces[out] = fs
	flat := in.Block("PIN", nt)
	pout := out.Block("POUT", nt)
	r := int64(2)
	footprint := func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{geometry.R1(b.Lo.X()-r, b.Hi.X()+r)}
	}
	halo := func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{
			geometry.R1(b.Lo.X()-r, b.Lo.X()-1),
			geometry.R1(b.Hi.X()+1, b.Hi.X()+r),
		}
	}

	var inWriteArgs []ir.RegionArg
	var readArgs []ir.RegionArg
	if !hierarchical {
		qin := region.ImageRects(in, flat, "QIN", footprint)
		inWriteArgs = []ir.RegionArg{{Part: flat}}
		readArgs = []ir.RegionArg{{Part: qin}}
	} else {
		var ghost geometry.IndexSpace = geometry.EmptyIndexSpace(1)
		flat.Each(func(_ geometry.Point, sub *region.Region) bool {
			b := sub.IndexSpace().Bounds()
			ghost = ghost.Union(geometry.FromRects(1, halo(sub.IndexSpace())))
			ghost = ghost.Union(geometry.FromRects(1, []geometry.Rect{
				geometry.R1(b.Lo.X(), b.Lo.X()+r-1), geometry.R1(b.Hi.X()-r+1, b.Hi.X()),
			}))
			return true
		})
		ghost = ghost.Intersect(in.IndexSpace())
		private := in.IndexSpace().Subtract(ghost)
		top := in.BySubsets("pvg", geometry.NewIndexSpace(geometry.R1(0, 1)),
			map[geometry.Point]geometry.IndexSpace{geometry.Pt1(0): private, geometry.Pt1(1): ghost})
		pb := region.Restrict(top.Sub1(0), flat, "PINpriv")
		sb := region.Restrict(top.Sub1(1), flat, "SIN")
		qb := region.Restrict(top.Sub1(1), region.ImageRects(in, flat, "QINflat", halo), "QIN")
		inWriteArgs = []ir.RegionArg{{Part: pb}, {Part: sb}}
		readArgs = []ir.RegionArg{{Part: pb}, {Part: sb}, {Part: qb}}
	}

	stParams := []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{u}}}
	for range readArgs {
		stParams = append(stParams, ir.Param{Priv: ir.PrivRead, Fields: []region.FieldID{u}})
	}
	st := &ir.TaskDecl{Name: "st", Params: stParams, CostPerElem: 200000}
	advParams := make([]ir.Param, len(inWriteArgs))
	for i := range advParams {
		advParams[i] = ir.Param{Priv: ir.PrivReadWrite, Fields: []region.FieldID{u}}
	}
	adv := &ir.TaskDecl{Name: "adv", Params: advParams, CostPerElem: 60000}

	loop := &ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
		&ir.Launch{Task: st, Domain: ir.Colors1D(nt), Args: append([]ir.RegionArg{{Part: pout}}, readArgs...)},
		&ir.Launch{Task: adv, Domain: ir.Colors1D(nt), Args: inWriteArgs},
	}}
	p.Add(loop)
	return p, loop
}

// Metrics summarizes one compiled-and-executed configuration.
type Metrics struct {
	Copies     int   // copy ops in the loop body
	Pairs      int   // communication pairs per iteration
	Volume     int64 // elements moved per iteration
	Candidates int   // shallow-phase candidates
	PerIter    realm.Time
	Messages   int64
	BytesSent  int64
}

// runConfig compiles and runs a program in Modeled mode and collects
// metrics.
func runConfig(prog *ir.Program, loop *ir.Loop, nodes int, opts cr.Options, window int, noise realm.NoiseFn) (Metrics, error) {
	plan, err := cr.Compile(prog, loop, opts)
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		m.Copies++
		m.Pairs += len(op.Copy.Pairs)
		for _, pr := range op.Copy.Pairs {
			m.Volume += pr.Overlap.Volume()
		}
	}
	m.Candidates = plan.Timings.Candidates

	sim, err := realm.NewSim(realm.DefaultConfig(nodes))
	if err != nil {
		return Metrics{}, err
	}
	eng := spmd.New(sim, prog, ir.ExecModeled, map[*ir.Loop]*cr.Compiled{loop: plan})
	if window > 0 {
		eng.Over.Window = window
	}
	eng.Over.Noise = noise
	res, err := eng.Run()
	if err != nil {
		return Metrics{}, err
	}
	times := res.IterTimes[loop]
	skip := len(times) / 4
	if skip < 1 {
		skip = 1
	}
	m.PerIter = (times[len(times)-1] - times[skip]) / realm.Time(len(times)-1-skip)
	m.Messages = res.Stats.Messages
	m.BytesSent = res.Stats.BytesSent
	return m, nil
}

// Fmt renders a metrics row.
func (m Metrics) Fmt() string {
	return fmt.Sprintf("copies=%d pairs=%d volume=%d candidates=%d per-iter=%v msgs=%d bytes=%d",
		m.Copies, m.Pairs, m.Volume, m.Candidates, m.PerIter, m.Messages, m.BytesSent)
}
