package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randCodes draws a sequence over a small alphabet so matches are common
// enough for interesting alignments.
func randCodes(rng *rand.Rand, n, alphabet int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(rng.Intn(alphabet))
	}
	return s
}

// codesEq adapts two code slices to the closure-kernel interface.
func codesEq(a, b []uint32) EqFunc {
	return func(i, j int) bool { return a[i] == b[j] }
}

// checkTwin runs one closure kernel and its coded twin on the same input and
// requires bit-identical steps — not just equal score. The merger's output is
// a pure function of the []Step slice, so this is the property that makes
// the kernels interchangeable.
func checkTwin(t *testing.T, name string, a, b []uint32,
	closure func(n, m int, eq EqFunc, sc Scoring) []Step, coded CodedFunc, sc Scoring) {
	t.Helper()
	want := closure(len(a), len(b), codesEq(a, b), sc)
	got := coded(a, b, sc)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: coded kernel diverges on n=%d m=%d:\nclosure: %v\ncoded:   %v",
			name, len(a), len(b), want, got)
	}
	if !Validate(got, len(a), len(b)) {
		t.Errorf("%s: coded kernel produced invalid alignment (n=%d m=%d)", name, len(a), len(b))
	}
}

// TestCodedKernelsBitIdentical sweeps random sequences — including empty and
// degenerate sizes — through every closure/coded kernel pair.
func TestCodedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pairs := []struct {
		name    string
		closure func(n, m int, eq EqFunc, sc Scoring) []Step
		coded   CodedFunc
	}{
		{"align", Align, AlignCodes},
		{"nw", NeedlemanWunsch, NeedlemanWunschCodes},
		{"hirschberg", Hirschberg, HirschbergCodes},
		{"gotoh", GotohAligner, GotohAlignerCodes},
		{"banded-8", BandedAligner(8), BandedAlignerCodes(8)},
		{"banded-1", BandedAligner(1), BandedAlignerCodes(1)},
	}
	sizes := [][2]int{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 7}, {7, 1},
		{13, 13}, {20, 33}, {64, 64}, {100, 37},
	}
	for _, p := range pairs {
		for _, sz := range sizes {
			for trial := 0; trial < 4; trial++ {
				alphabet := 2 + trial*3
				a := randCodes(rng, sz[0], alphabet)
				b := randCodes(rng, sz[1], alphabet)
				checkTwin(t, p.name, a, b, p.closure, p.coded, DefaultScoring)
			}
		}
	}
	// Non-default scoring exercises tie-break arithmetic differently.
	odd := Scoring{Match: 3, Mismatch: -2, Gap: -4}
	for _, p := range pairs {
		a := randCodes(rng, 41, 4)
		b := randCodes(rng, 29, 4)
		checkTwin(t, p.name+"/odd-scoring", a, b, p.closure, p.coded, odd)
	}
	// Weights this large wrap the int32 scores within a few cells: the
	// linear-gap coded kernels must still replay the closure kernels' int32
	// arithmetic and strict comparisons exactly, whatever the Scoring. (The
	// Gotoh and banded kernels reserve a -2^29 sentinel, so they are not
	// defined at this scale.)
	wrap := Scoring{Match: 1 << 29, Mismatch: -(1 << 30) + 7, Gap: -(1 << 30)}
	for _, p := range pairs[:3] {
		for trial := 0; trial < 4; trial++ {
			a := randCodes(rng, 23+trial, 3)
			b := randCodes(rng, 30-trial, 3)
			checkTwin(t, p.name+"/wrapping-scoring", a, b, p.closure, p.coded, wrap)
		}
	}
}

// TestGotohCodesAffine pins the coded Gotoh against the closure Gotoh under a
// scoring where opening and extension genuinely differ (GotohAligner
// collapses them).
func TestGotohCodesAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := AffineScoring{Match: 2, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	for trial := 0; trial < 8; trial++ {
		a := randCodes(rng, 10+trial*7, 3)
		b := randCodes(rng, 8+trial*9, 3)
		want := Gotoh(len(a), len(b), codesEq(a, b), sc)
		got := GotohCodes(a, b, sc)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: affine coded kernel diverges", trial)
		}
	}
}

// TestBandedCodesWidening forces the band-widening retry path: sequences
// whose optimal alignment needs a wide band, attacked with band=1.
func TestBandedCodesWidening(t *testing.T) {
	// b is a long prefix of junk followed by a copy of a: the optimal path
	// leaves the initial narrow band.
	a := make([]uint32, 24)
	for i := range a {
		a[i] = uint32(i + 100)
	}
	junk := make([]uint32, 17)
	for i := range junk {
		junk[i] = 7
	}
	b := append(append([]uint32{}, junk...), a...)
	want := BandedAligner(1)(len(a), len(b), codesEq(a, b), DefaultScoring)
	got := BandedAlignerCodes(1)(a, b, DefaultScoring)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("banded widening path diverges between closure and coded kernels")
	}
}

// TestUseDirectOverflow is the regression test for the n*m overflow: with the
// old product-form check, n = m = 1<<32 wraps n*m to 0 on 64-bit and routes a
// ~2^64-cell problem to the direct kernel. The division form must reject it.
func TestUseDirectOverflow(t *testing.T) {
	const huge = 1 << 32 // only meaningful on 64-bit int; harmless elsewhere
	if huge > 0 && useDirect(huge, huge) {
		t.Error("useDirect accepted a 2^64-cell problem (int overflow)")
	}
	if huge > 0 && huge*huge <= maxDirectCells {
		// Documents the wrap the division form guards against.
		t.Log("product form wraps as expected; division form required")
	}
	// Agreement with the product form everywhere the product does not
	// overflow, including both sides of the threshold.
	cases := [][2]int{
		{0, 0}, {0, 9}, {9, 0}, {1, maxDirectCells}, {maxDirectCells, 1},
		{1 << 12, 1 << 12}, {4096, 4097}, {1 << 13, 1 << 11}, {3, maxDirectCells / 3},
		{3, maxDirectCells/3 + 1}, {1 << 13, 1 << 12},
	}
	for _, c := range cases {
		n, m := c[0], c[1]
		want := n == 0 || m == 0 || n*m <= maxDirectCells
		if got := useDirect(n, m); got != want {
			t.Errorf("useDirect(%d, %d) = %v, want %v", n, m, got, want)
		}
	}
}

// TestAlignCodesRouting checks the dispatcher picks twin kernels with the
// closure Align on both sides of the useDirect threshold (small direct case
// here; the Hirschberg route is covered by sizes in the bit-identity sweep
// and by the Hirschberg property test).
func TestAlignCodesRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randCodes(rng, 200, 5)
	b := randCodes(rng, 300, 5)
	want := Align(len(a), len(b), codesEq(a, b), DefaultScoring)
	got := AlignCodes(a, b, DefaultScoring)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("AlignCodes diverges from Align on the direct route")
	}
}

// relatedCodes returns a copy of base with roughly one position in rate
// substituted, deleted or followed by an insertion — the shape of a merge
// candidate aligned against its partner, where runs of matches alternate
// with short divergent stretches.
func relatedCodes(rng *rand.Rand, base []uint32, rate, alphabet int) []uint32 {
	out := make([]uint32, 0, len(base)+len(base)/rate+1)
	for _, c := range base {
		switch rng.Intn(3 * rate) {
		case 0:
			out = append(out, uint32(rng.Intn(alphabet)))
		case 1:
		case 2:
			out = append(out, c, uint32(rng.Intn(alphabet)))
		default:
			out = append(out, c)
		}
	}
	return out
}

// alignSink keeps benchmarked alignments live.
var alignSink []Step

// BenchmarkAlignCodes times the coded dispatcher on the shapes exploration
// feeds it: mid-size pairs, a large square pair, and 54912×80 — a huge
// function (lto-t10's @main) against a typical partner — and reports the
// cost per dynamic-programming cell.
func BenchmarkAlignCodes(b *testing.B) {
	const alphabet = 24
	for _, shape := range [][2]int{{300, 300}, {2000, 2000}, {54912, 80}} {
		n, m := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", n, m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n*7 + m)))
			a := randCodes(rng, n, alphabet)
			// The partner is a mutated copy of a window of a, cut or padded
			// to exactly m codes.
			off := 0
			if n > m {
				off = rng.Intn(n - m)
			}
			c := relatedCodes(rng, a[off:min(n, off+m+m/4)], 5, alphabet)
			for len(c) < m {
				c = append(c, uint32(rng.Intn(alphabet)))
			}
			c = c[:m]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alignSink = AlignCodes(a, c, DefaultScoring)
			}
			cells := float64(n) * float64(m) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
		})
	}
}
