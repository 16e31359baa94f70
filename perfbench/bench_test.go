package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ir"
)

// smallNodes keeps the figure tests fast; every cell still has an
// expected value.
var smallNodes = []int{1, 4, 16}

func loadExpected(t *testing.T) map[string]int64 {
	t.Helper()
	exp, err := loadFiguresExpected()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestCounterDeterminism runs the traced figure cells and the traced
// certification twice and requires every counter the benchmark calls
// deterministic to repeat exactly.
func TestCounterDeterminism(t *testing.T) {
	exp := loadExpected(t)
	figCounters := []string{
		"realm.events", "realm.messages", "realm.bytes",
		"spmd.specializations", "spmd.replayed_iters",
		"rt.events", "rt.replayed_launches",
		"cr.intersect_candidates", "cr.intersect_pairs",
	}
	certCounters := []string{
		"verify.hb_nodes", "verify.hb_edges", "verify.conflicts",
		"verify.sync_edges_before", "verify.sync_edges_after", "verify.merged_pairs",
		"cr.intersect_candidates", "cr.intersect_pairs",
	}
	var progs []certProgram
	for _, cp := range certPrograms(defaultSeed) {
		if cp.name != "miniaero" { // the slowest to certify; the others cover every pass
			progs = append(progs, cp)
		}
	}
	var figs, certs [2]map[string]float64
	for i := range figs {
		o := &outcome{}
		figs[i] = figuresRound(newTracer(), figApps(), smallNodes, exp, o).layers
		certs[i] = certifyRound(newTracer(), progs, o).layers
		if o.failed != 0 {
			t.Fatalf("run %d: %d failed operations: %v", i, o.failed, o.failures)
		}
	}
	for _, k := range figCounters {
		if figs[0][k] != figs[1][k] || figs[0][k] == 0 {
			t.Errorf("figures %s: %v then %v (want equal and non-zero)", k, figs[0][k], figs[1][k])
		}
	}
	for _, k := range certCounters {
		if certs[0][k] != certs[1][k] || certs[0][k] == 0 {
			t.Errorf("certify %s: %v then %v (want equal and non-zero)", k, certs[0][k], certs[1][k])
		}
	}
}

// TestCorruptedExpectedIsFailedOperation corrupts one expected cell and
// drops another: each must count as one failed operation, traced or not,
// and nothing else may fail.
func TestCorruptedExpectedIsFailedOperation(t *testing.T) {
	exp := loadExpected(t)
	bad := map[string]int64{}
	for k, v := range exp {
		bad[k] = v
	}
	bad[cellKey("stencil", "regent-cr", 4)]++
	delete(bad, cellKey("circuit", "regent-nocr", 1))
	for _, tr := range []*tracer{nil, newTracer()} {
		o := &outcome{}
		figuresRound(tr, figApps(), []int{1, 4}, bad, o)
		if o.failed != 2 || len(o.failures) != 2 {
			t.Fatalf("traced=%v: %d failed of %d, want 2: %v", tr != nil, o.failed, o.attempted, o.failures)
		}
		if !strings.Contains(o.failures[0], "stencil/regent-cr/4") || !strings.Contains(o.failures[1], "circuit/regent-nocr/1") {
			t.Errorf("failures name the wrong cells: %v", o.failures)
		}
	}

	o := &outcome{}
	checkNative(o, []map[string]string{{"stencil": "a", "circuit": "b"}}, map[string]string{"stencil": "a", "circuit": "c"})
	if o.attempted != 2 || o.failed != 1 {
		t.Errorf("native check: %d failed of %d, want 1 of 2", o.failed, o.attempted)
	}
}

// TestExpectedAgreesWithGolden requires the recorded figure cells to agree
// with the per-iteration times internal/harness/golden_test.go pins.
func TestExpectedAgreesWithGolden(t *testing.T) {
	src, err := os.ReadFile("../internal/harness/golden_test.go")
	if err != nil {
		t.Fatal(err)
	}
	body := string(src)
	start := strings.Index(body, "func TestGoldenStencilMeasure")
	if start < 0 {
		t.Fatal("TestGoldenStencilMeasure not found")
	}
	body = body[start:]
	body = body[:strings.Index(body, "\n}\n")]
	exp := loadExpected(t)
	row := regexp.MustCompile(`"([a-z-]+)":\s*\{([^}]*)\}`)
	pin := regexp.MustCompile(`(\d+):\s*(\d+)`)
	n := 0
	for _, m := range row.FindAllStringSubmatch(body, -1) {
		for _, p := range pin.FindAllStringSubmatch(m[2], -1) {
			nodes, _ := strconv.Atoi(p[1])
			want, _ := strconv.ParseInt(p[2], 10, 64)
			key := cellKey("stencil", m[1], nodes)
			if got, ok := exp[key]; !ok || got != want {
				t.Errorf("%s: expected file has %d, golden pins %d", key, got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no pinned cells parsed from golden_test.go")
	}
}

// TestNativeReferenceHashes recomputes the recorded native reference
// hashes with the sequential interpreter.
func TestNativeReferenceHashes(t *testing.T) {
	want, err := loadNativeExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, na := range nativeApps {
		prog, _ := na.build(want.Seed)
		if got := storeHash(ir.ExecSequential(prog).Stores); got != want.Hashes[na.name] {
			t.Errorf("%s: sequential hash %s, recorded %s", na.name, got, want.Hashes[na.name])
		}
	}
}

// TestBadArgumentsPrintNoResult: a usage error exits non-zero and prints
// no result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "certify", "--trace", "2"},
		{"--workload", "certify", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
