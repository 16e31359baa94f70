package main

import (
	"fmt"
	"time"

	"repro/internal/apps/circuit"
	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/verify"
)

// Certification scales: the crc -verify path at one piece per shard, the
// aggregation check at 2x overdecomposition (so groups have several
// members), and pruning at 32 pieces (at 64, miniaero alone takes seconds
// and prunes nothing).
const (
	certPieces  = 64
	aggShards   = 32
	prunePieces = 32
)

// certProgram is one app's programs for the certify workload.
type certProgram struct {
	name            string
	prog, pruneProg *ir.Program
	loop, pruneLoop *ir.Loop
}

// certPrograms builds every app at certPieces and prunePieces the way crc
// does (harness.App.BuildProgram), except that circuit's graph comes from
// the seed.
func certPrograms(seed int64) []certProgram {
	var out []certProgram
	for _, a := range harness.Apps() {
		build := a.BuildProgram
		if a.Name == "circuit" {
			build = func(n int) (*ir.Program, *ir.Loop) {
				c := circuit.Default(n)
				c.Seed = seed
				a := circuit.Build(c)
				return a.Prog, a.Loop
			}
		}
		cp := certProgram{name: a.Name}
		cp.prog, cp.loop = build(certPieces)
		cp.pruneProg, cp.pruneLoop = build(prunePieces)
		out = append(out, cp)
	}
	return out
}

// runCertify is the certify workload.
func runCertify(cfg runCfg) (*outcome, error) {
	o := &outcome{}
	var progs []certProgram
	if err := o.timeSetups(setupReps, func() error {
		progs = certPrograms(cfg.seed)
		return nil
	}); err != nil {
		return nil, err
	}
	o.runRounds(cfg.budget, func() round {
		return certifyRound(cfg.tr, progs, o)
	})
	return o, nil
}

// certifyRound certifies every app once. Each verdict (races, liveness,
// spec, agg, prune) is one operation; it fails on an error or a finding.
func certifyRound(tr *tracer, progs []certProgram, o *outcome) round {
	r := round{named: map[string]float64{}, layers: map[string]float64{}}
	var appMs []float64
	from := tr.mark()
	t0 := time.Now()
	for _, cp := range progs {
		tr.setGroup(cp.name)
		ta := time.Now()
		for _, step := range []struct {
			name string
			fn   func(*tracer, certProgram, *outcome, map[string]float64)
		}{{"certify", certifyStep}, {"agg", aggStep}, {"prune", pruneStep}} {
			ts := time.Now()
			tr.do(step.name, "", func() { step.fn(tr, cp, o, r.layers) })
			d := time.Since(ts)
			key := "certify_s"
			if step.name == "prune" {
				key = "prune_s"
			}
			r.named[key] += d.Seconds()
		}
		appMs = append(appMs, ms(time.Since(ta)))
	}
	r.wall = time.Since(t0)
	// A step is one app's certification: all three paths.
	r.p50, r.p90, r.steps = quantile(appMs, 0.5), quantile(appMs, 0.9), len(appMs)
	spanMetrics(r.layers, tr.window(from))
	return r
}

// verdict counts one certification verdict.
func verdict(o *outcome, app, pass string, rep *verify.Report, err error) {
	switch {
	case err != nil:
		o.check(false, "certify %s %s: %v", app, pass, err)
	case rep == nil:
		o.check(false, "certify %s %s: no report", app, pass)
	default:
		o.check(rep.OK(), "certify %s %s: %d findings", app, pass, len(rep.Findings))
	}
}

// certifyStep is crc -verify: compile, then the races, liveness and spec
// verdicts over one happens-before analysis.
func certifyStep(tr *tracer, cp certProgram, o *outcome, layers map[string]float64) {
	plan, err := compile(tr, cp.prog, cp.loop, cr.Options{NumShards: certPieces, Sync: cr.PointToPoint}, layers)
	if err != nil {
		for _, pass := range []string{"races", "liveness", "spec"} {
			verdict(o, cp.name, pass, nil, err)
		}
		return
	}
	var a *verify.Analysis
	tr.do("verify.analyze", "verify", func() { a, err = verify.Analyze(plan) })
	if err != nil {
		verdict(o, cp.name, "races", nil, err)
		verdict(o, cp.name, "liveness", nil, err)
	} else {
		var races, live *verify.Report
		tr.do("verify.races", "verify", func() { races = a.Check() })
		tr.do("verify.liveness", "verify", func() { live = a.CheckLiveness() })
		verdict(o, cp.name, "races", races, nil)
		verdict(o, cp.name, "liveness", live, nil)
		layers["verify.hb_nodes"] += float64(races.Stats.Nodes)
		layers["verify.hb_edges"] += float64(races.Stats.Edges)
		layers["verify.conflicts"] += float64(races.Stats.Conflicts)
	}
	var specErr error
	tr.do("verify.spec", "verify", func() { specErr = verify.CheckSpec(plan) })
	o.check(specErr == nil, "certify %s spec: %v", cp.name, specErr)
}

// aggStep is crc -agg at 2x overdecomposition.
func aggStep(tr *tracer, cp certProgram, o *outcome, layers map[string]float64) {
	plan, err := compile(tr, cp.prog, cp.loop, cr.Options{NumShards: aggShards, Sync: cr.PointToPoint, Agg: true}, layers)
	var rep *verify.Report
	if err == nil {
		tr.do("verify.agg", "verify", func() { rep, err = verify.CheckAgg(plan) })
	}
	verdict(o, cp.name, "agg", rep, err)
	if rep != nil {
		layers["verify.merged_pairs"] += float64(rep.Counters["merged_pairs"])
	}
}

// pruneStep is crc -prune.
func pruneStep(tr *tracer, cp certProgram, o *outcome, layers map[string]float64) {
	plan, err := compile(tr, cp.pruneProg, cp.pruneLoop, cr.Options{NumShards: prunePieces, Sync: cr.PointToPoint}, layers)
	var rep *verify.Report
	if err == nil {
		tr.do("verify.prune", "verify", func() { _, rep, err = verify.PlanPrune(plan) })
	}
	verdict(o, cp.name, "prune", rep, err)
	if rep != nil {
		layers["verify.sync_edges_before"] += float64(rep.Counters["sync_edges_before"])
		layers["verify.sync_edges_after"] += float64(rep.Counters["sync_edges_after"])
	}
}

// compile runs cr.Compile in a span and adds its intersection timings.
func compile(tr *tracer, prog *ir.Program, loop *ir.Loop, opts cr.Options, layers map[string]float64) (*cr.Compiled, error) {
	var plan *cr.Compiled
	var err error
	tr.do("cr.compile", "cr", func() { plan, err = cr.Compile(prog, loop, opts) })
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	layers["cr.intersect_shallow_ms"] += ms(plan.Timings.Shallow)
	layers["cr.intersect_complete_ms"] += ms(plan.Timings.Complete)
	layers["cr.intersect_candidates"] += float64(plan.Timings.Candidates)
	layers["cr.intersect_pairs"] += float64(plan.Timings.Pairs)
	return plan, nil
}
