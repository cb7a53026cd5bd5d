package align

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// checkColumns requires a valid alignment whose match columns pair equal
// codes and whose mismatch columns pair different ones.
func checkColumns(t *testing.T, name string, a, b []uint32, steps []Step) {
	t.Helper()
	if !Validate(steps, len(a), len(b)) {
		t.Fatalf("%s: invalid alignment (n=%d m=%d): %v", name, len(a), len(b), steps)
	}
	for _, s := range steps {
		if (s.Op == OpMatch) != (s.Op <= OpMismatch && a[s.I] == b[s.J]) {
			t.Fatalf("%s: column %v mislabels codes %d/%d", name, s, a[s.I], b[s.J])
		}
	}
}

// TestCodedKernelsBitIdentical sweeps random sequences — including empty and
// degenerate sizes — through every kernel and requires the steps of its
// reference, not just an equal score: refNW and refHirschberg for the
// linear-gap kernels, refGotoh for the affine kernel and refBanded for the
// banded ones. The merger's output is a pure function of the []Step slice,
// so this pins every ablation's merges, tie-breaks included.
func TestCodedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kernels := []struct {
		name string
		fn   CodedFunc
		ref  CodedFunc
	}{
		{"align", AlignCodes, refNWSteps},
		{"nw", NeedlemanWunschCodes, refNWSteps},
		{"hirschberg", HirschbergCodes, refHirschberg},
		{"gotoh", GotohAlignerCodes, refGotohAligner},
		{"banded-8", BandedAlignerCodes(8), refBanded(8)},
		{"banded-1", BandedAlignerCodes(1), refBanded(1)},
	}
	check := func(name string, a, b []uint32, fn, ref CodedFunc) {
		t.Helper()
		got, want := fn(a, b), ref(a, b)
		if !slices.Equal(want, got) {
			t.Errorf("%s: kernel diverges from the reference on n=%d m=%d:\nref:    %v\nkernel: %v",
				name, len(a), len(b), want, got)
		}
		checkColumns(t, name, a, b, got)
	}
	sizes := [][2]int{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 7}, {7, 1},
		{13, 13}, {20, 33}, {64, 64}, {100, 37},
	}
	for _, k := range kernels {
		for _, sz := range sizes {
			for trial := 0; trial < 4; trial++ {
				alphabet := 2 + trial*3
				a := randCodes(rng, sz[0], alphabet)
				b := randCodes(rng, sz[1], alphabet)
				check(k.name, a, b, k.fn, k.ref)
			}
		}
	}
}

// TestGotohCodesAffine checks GotohCodes under a scoring where opening and
// extension genuinely differ (GotohAlignerCodes collapses them): the
// reference's steps, at the exhaustive affine optimum.
func TestGotohCodesAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := AffineScoring{Match: 2, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	for trial := 0; trial < 8; trial++ {
		a := randCodes(rng, 10+trial*7, 3)
		b := randCodes(rng, 8+trial*9, 3)
		steps := GotohCodes(a, b, sc)
		if want := refGotoh(a, b, sc); !slices.Equal(steps, want) {
			t.Fatalf("trial %d: diverges from the reference:\ngot  %v\nwant %v", trial, steps, want)
		}
		if got, want := AffineScore(steps, sc), slowAffineScore(a, b, sc); got != want {
			t.Fatalf("trial %d: affine score %d != optimum %d", trial, got, want)
		}
	}
}

// TestBandedCodesWidening forces the band-widening path: sequences whose
// optimal alignment needs a wide band, attacked with band=1. The band widens
// to the length difference, which here still holds the optimal path.
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
	got := BandedAlignerCodes(1)(a, b)
	checkColumns(t, "banded-1", a, b, got)
	if want := refNWSteps(a, b); !slices.Equal(want, got) {
		t.Fatalf("widened band misses the optimal path:\ngot  %v\nwant %v", got, want)
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

// TestAlignCodesRouting checks the dispatcher's linear-space route: one
// column past the direct kernel's cell budget, AlignCodes is exactly
// HirschbergCodes, at the optimal score. The optimum comes from the direct
// kernel, a different fill and traceback from Hirschberg's score rows, here
// on 8 MiB of delta planes (TestAlignDispatch covers the direct route).
func TestAlignCodesRouting(t *testing.T) {
	const n, m = 4097, 4096 // n·m just above maxDirectCells
	if useDirect(n, m) {
		t.Fatalf("useDirect(%d, %d) = true; the shape no longer exercises Hirschberg", n, m)
	}
	rng := rand.New(rand.NewSource(17))
	a := randCodes(rng, n, 5)
	b := relatedCodes(rng, a, 6, 5)
	for len(b) < m {
		b = append(b, uint32(rng.Intn(5)))
	}
	b = b[:m]
	got := AlignCodes(a, b)
	if !slices.Equal(got, HirschbergCodes(a, b)) {
		t.Fatal("AlignCodes diverges from HirschbergCodes above the direct threshold")
	}
	checkColumns(t, "align", a, b, got)
	if score, opt := Score(got), Score(NeedlemanWunschCodes(a, b)); score != opt {
		t.Fatalf("score %d, optimum %d", score, opt)
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

// TestAlignCodesScratchBound aligns 54,912 distinct codes — lto-t10's
// @main, whose phis all get fresh codes — against an 80-code partner, in
// both argument orders, and requires the call to allocate at most 16 MiB
// from a cold pool. The bit-parallel fill keys its match masks on the
// shorter sequence and needs about 6 MiB here; masks keyed on the longer
// one would take about 377 MB.
func TestAlignCodesScratchBound(t *testing.T) {
	const limit = 16 << 20
	long := make([]uint32, 54912)
	for i := range long {
		long[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(31))
	short := relatedCodes(rng, long[20000:20070], 5, len(long))
	for len(short) < 80 {
		short = append(short, uint32(rng.Intn(len(long))))
	}
	short = short[:80]
	for _, tc := range []struct {
		name string
		a, b []uint32
	}{{"54912x80", long, short}, {"80x54912", short, long}} {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		steps := AlignCodes(tc.a, tc.b)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated", tc.name, got)
		if got > limit {
			t.Errorf("%s: AlignCodes allocated %d bytes, want <= %d", tc.name, got, limit)
		}
		checkColumns(t, tc.name, tc.a, tc.b, steps)
	}
}

// TestHirschbergScratchBound aligns 8192 distinct codes against 8192 more,
// the shape that fills the most match masks, and requires the call to
// allocate at most 4 MiB from a cold pool. Hirschberg's score rows build
// masks one 64-row block at a time and the call allocates about 0.6 MB;
// masks for all rows of each split at once read about 5.9 MB, growing with
// n·m instead of n+m.
func TestHirschbergScratchBound(t *testing.T) {
	if raceDetector {
		t.Skip("allocation bound; scripts/check.sh runs it without -race in the kernels gate")
	}
	const n, limit = 8192, 4 << 20
	a, b := make([]uint32, n), make([]uint32, n)
	for i := range a {
		a[i], b[i] = uint32(i), uint32(n+i)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := HirschbergCodes(a, b)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%dx%d: %d bytes allocated", n, n, got)
	if got > limit {
		t.Errorf("HirschbergCodes allocated %d bytes, want <= %d", got, limit)
	}
	checkColumns(t, "hirschberg", a, b, steps)
}

// TestHirschbergAllocs bounds the allocations of one HirschbergCodes call
// on BenchmarkHirschberg's largest shape, 4097×4096 codes over 8 symbols,
// once the kernel's pooled scratch is warm: the reversed copies, the two
// score rows every split reuses and the presized result, which the one-row
// base cases append to in place — three in all. A base case that allocated
// its own steps, or a split that allocated its score rows, would add
// thousands.
func TestHirschbergAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation bound; scripts/check.sh runs it without -race in the kernels gate")
	}
	rng := rand.New(rand.NewSource(4097 + 4096))
	a, b := randCodes(rng, 4097, 8), randCodes(rng, 4096, 8)
	var steps []Step
	if got := testing.AllocsPerRun(10, func() { steps = HirschbergCodes(a, b) }); got > 3 {
		t.Errorf("HirschbergCodes made %.0f allocations per call, want <= 3", got)
	}
	checkColumns(t, "hirschberg", a, b, steps)
}

// BenchmarkAlignCodes times the coded dispatcher on the shapes exploration
// feeds it: lto-t10's median function (22×22), mid-size and large square
// pairs, paper-scale's largest function (924×900), and 54912×80 and
// 80×54912 — a huge function (lto-t10's @main) against a typical partner,
// in both orders — and reports the cost per dynamic-programming cell.
func BenchmarkAlignCodes(b *testing.B) {
	const alphabet = 24
	for _, shape := range [][2]int{{22, 22}, {300, 300}, {924, 900}, {2000, 2000}, {54912, 80}, {80, 54912}} {
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
				alignSink = AlignCodes(a, c)
			}
			cells := float64(n) * float64(m) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
		})
	}
}
