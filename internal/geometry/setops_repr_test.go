package geometry

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The functions below are the earlier implementations of the operations
// that now gallop, index or sort without reflection. The tests pin the new
// ones to them span for span: the modeled copy sizes and every downstream
// schedule depend on the representation, not just the point set.

func refIntersect(s, t IndexSpace) IndexSpace {
	if s.dim == 1 && len(s.spans)+len(t.spans) > sweepThreshold {
		a, b := s.spans, t.spans
		var spans []Rect
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			lo := max64(a[i].Lo.X(), b[j].Lo.X())
			hi := min64(a[i].Hi.X(), b[j].Hi.X())
			if lo <= hi {
				spans = append(spans, R1(lo, hi))
			}
			if a[i].Hi.X() < b[j].Hi.X() {
				i++
			} else {
				j++
			}
		}
		return IndexSpace{dim: 1, spans: spans}
	}
	var spans []Rect
	for _, a := range s.spans {
		for _, b := range t.spans {
			if c := a.Intersect(b); !c.Empty() {
				spans = append(spans, c)
			}
		}
	}
	if s.dim == 1 {
		refSortSpans1D(spans)
	}
	return IndexSpace{dim: s.dim, spans: spans}
}

func refSortSpans1D(spans []Rect) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo.X() < spans[j].Lo.X() })
}

func refFromPoints(dim int8, pts []Point) IndexSpace {
	if len(pts) == 0 {
		return IndexSpace{dim: dim}
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	var spans []Rect
	run := Rect{sorted[0], sorted[0]}
	last := int(dim) - 1
	for _, p := range sorted[1:] {
		if p == run.Hi {
			continue
		}
		ext := run.Hi
		ext.C[last]++
		if p == ext {
			run.Hi = p
			continue
		}
		spans = append(spans, run)
		run = Rect{p, p}
	}
	spans = append(spans, run)
	return IndexSpace{dim: dim, spans: spans}
}

// randSpans1D returns n sorted, disjoint 1-D spans with random gaps, the
// shape of a sparse 1-D index space.
func randSpans1D(rng *rand.Rand, n int) IndexSpace {
	spans := make([]Rect, 0, n)
	x := rng.Int63n(8)
	for i := 0; i < n; i++ {
		w := rng.Int63n(6)
		spans = append(spans, R1(x, x+w))
		x += w + 2 + rng.Int63n(10)
	}
	return IndexSpace{dim: 1, spans: spans}
}

// randTiles returns a sparse multi-dimensional space of up to n disjoint
// tiles on a jittered grid, so axis-0 extents repeat like the structured
// partitions the index is built for, plus some one-off extents.
func randTiles(rng *rand.Rand, dim int8, n int) IndexSpace {
	var rects []Rect
	for len(rects) < n {
		var lo, hi Point
		lo.Dim, hi.Dim = dim, dim
		for i := 0; i < int(dim); i++ {
			cell := rng.Int63n(12)
			lo.C[i] = cell * 10
			hi.C[i] = lo.C[i] + 7
			if i == 0 && rng.Intn(4) == 0 {
				hi.C[i] = lo.C[i] + rng.Int63n(8)
			}
		}
		r := Rect{lo, hi}
		if !slices.ContainsFunc(rects, r.Overlaps) {
			rects = append(rects, r)
		}
		if rng.Intn(50) == 0 {
			break
		}
	}
	return FromDisjointRects(dim, rects)
}

// randQuery returns a space of a few random rectangles (possibly spanning
// several tiles) to intersect with a tile space.
func randQuery(rng *rand.Rand, dim int8) IndexSpace {
	var rects []Rect
	for k := rng.Intn(4) + 1; k > 0; k-- {
		var lo, hi Point
		lo.Dim, hi.Dim = dim, dim
		for i := 0; i < int(dim); i++ {
			lo.C[i] = rng.Int63n(120)
			hi.C[i] = lo.C[i] + rng.Int63n(40)
		}
		rects = append(rects, Rect{lo, hi})
	}
	return FromRects(dim, rects)
}

func sameSpans(a, b IndexSpace) bool {
	return a.dim == b.dim && slices.Equal(a.spans, b.spans)
}

func TestIntersect1DGallopMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		// Lengths from balanced to 200:1 in both argument orders, so both
		// the sweep and the galloping path run.
		n := rng.Intn(12)
		m := rng.Intn(300)
		if rng.Intn(2) == 0 {
			n, m = m, n
		}
		a, b := randSpans1D(rng, n), randSpans1D(rng, m)
		if rng.Intn(3) == 0 {
			b = a.Subtract(randSpans1D(rng, m)) // overlapping, shifted gaps
		}
		if got, want := a.Intersect(b), refIntersect(a, b); !sameSpans(got, want) {
			t.Fatalf("iter %d (%d vs %d spans): Intersect = %v, want %v", iter, n, m, got, want)
		}
	}
}

func TestClipperMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		dim := int8(rng.Intn(3) + 1)
		var clip IndexSpace
		if dim == 1 {
			clip = randSpans1D(rng, rng.Intn(120))
		} else {
			clip = randTiles(rng, dim, rng.Intn(100))
		}
		c := NewClipper(clip)
		for k := 0; k < 8; k++ {
			var q IndexSpace
			if dim == 1 {
				q = randSpans1D(rng, rng.Intn(10))
			} else {
				q = randQuery(rng, dim)
			}
			if got, want := c.Clip(q), refIntersect(q, clip); !sameSpans(got, want) {
				t.Fatalf("iter %d dim %d (%d clip spans): Clip = %v, want %v", iter, dim, len(clip.spans), got, want)
			}
		}
	}
}

func TestFromPointsAndSpanSortMatchReflectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 1000; iter++ {
		dim := int8(rng.Intn(3) + 1)
		pts := make([]Point, rng.Intn(80))
		for i := range pts {
			pts[i].Dim = dim
			for d := 0; d < int(dim); d++ {
				pts[i].C[d] = rng.Int63n(6)
			}
		}
		if got, want := FromPoints(dim, pts), refFromPoints(dim, pts); !sameSpans(got, want) {
			t.Fatalf("iter %d: FromPoints = %v, want %v", iter, got, want)
		}

		// Overlapping 1-D spans with repeated lower bounds: the order of
		// ties must match too.
		spans := make([]Rect, rng.Intn(100))
		for i := range spans {
			lo := rng.Int63n(30)
			spans[i] = R1(lo, lo+rng.Int63n(5))
		}
		got, want := slices.Clone(spans), slices.Clone(spans)
		sortSpans1D(got)
		refSortSpans1D(want)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: sortSpans1D = %v, want %v", iter, got, want)
		}
	}
}
