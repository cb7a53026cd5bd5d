package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// slowAffineScore computes the optimal affine-gap alignment score by
// exhaustive three-state recursion, for cross-checking Gotoh on small
// inputs.
func slowAffineScore(a, b []uint32, sc AffineScoring) int {
	type key struct {
		i, j  int
		state int // 0=fresh/match, 1=in gapA, 2=in gapB
	}
	memo := map[key]int{}
	const negInf = -1 << 29
	var rec func(i, j, state int) int
	rec = func(i, j, state int) int {
		if i == len(a) && j == len(b) {
			return 0
		}
		k := key{i, j, state}
		if v, ok := memo[k]; ok {
			return v
		}
		best := negInf
		if i < len(a) && j < len(b) {
			sub := sc.Mismatch
			if a[i] == b[j] {
				sub = sc.Match
			}
			if v := rec(i+1, j+1, 0) + sub; v > best {
				best = v
			}
		}
		if i < len(a) {
			cost := sc.GapExtend
			if state != 1 {
				cost += sc.GapOpen
			}
			if v := rec(i+1, j, 1) + cost; v > best {
				best = v
			}
		}
		if j < len(b) {
			cost := sc.GapExtend
			if state != 2 {
				cost += sc.GapOpen
			}
			if v := rec(i, j+1, 2) + cost; v > best {
				best = v
			}
		}
		memo[k] = best
		return best
	}
	return rec(0, 0, 0)
}

func TestGotohOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sc := AffineScoring{Match: 2, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	for iter := 0; iter < 150; iter++ {
		a := randCodes(r, r.Intn(12), 3)
		b := randCodes(r, r.Intn(12), 3)
		steps := GotohCodes(a, b, sc)
		if !Validate(steps, len(a), len(b)) {
			t.Fatalf("invalid gotoh alignment of %v, %v: %v", a, b, steps)
		}
		got := AffineScore(steps, sc)
		want := slowAffineScore(a, b, sc)
		if got != want {
			t.Fatalf("gotoh score %d != optimal %d for %v, %v (%v)", got, want, a, b, steps)
		}
	}
}

func TestGotohIdentical(t *testing.T) {
	s := codesOf("hello")
	steps := GotohCodes(s, s, DefaultAffineScoring)
	if countOps(steps)[OpMatch] != 5 {
		t.Errorf("identical strings should fully match: %v", steps)
	}
}

func TestGotohEmpty(t *testing.T) {
	steps := GotohCodes(nil, codesOf("abc"), DefaultAffineScoring)
	if !Validate(steps, 0, 3) {
		t.Errorf("empty-A alignment invalid: %v", steps)
	}
	steps = GotohCodes(codesOf("abc"), nil, DefaultAffineScoring)
	if !Validate(steps, 3, 0) {
		t.Errorf("empty-B alignment invalid: %v", steps)
	}
}

func TestGotohPrefersContiguousGaps(t *testing.T) {
	// A = core, B = core with noise inserted at two sites. With a strong
	// opening penalty the alignment should not have more gap runs than
	// insertion sites.
	a := codesOf("MMMMMMMM")
	b := codesOf("MMxyMMMMzwMM")
	sc := AffineScoring{Match: 2, Mismatch: -3, GapOpen: -4, GapExtend: 0}
	steps := GotohCodes(a, b, sc)
	if !Validate(steps, len(a), len(b)) {
		t.Fatal("invalid alignment")
	}
	if runs := GapRuns(steps); runs > 2 {
		t.Errorf("affine alignment has %d gap runs, want <= 2: %v", runs, steps)
	}
	if countOps(steps)[OpMatch] != 8 {
		t.Errorf("all core symbols should match: %v", steps)
	}
}

// TestGotohNeverWorseThanNWOnGapRuns checks the affine aligner against plain
// Needleman–Wunsch on the measure it optimizes: under affine scoring, where
// every gap run pays an opening penalty, Gotoh's alignment scores at least
// as well as NW's. This is Gotoh's optimality: NW under the paper's scheme
// never places a gap in a directly after a gap in b (a mismatch scores
// better than the two gaps), so its alignment is one of the paths Gotoh's
// dynamic program maximizes over. Gotoh need not produce fewer gap runs outright —
// it may trade one run for more matches — so runs are not compared.
func TestGotohNeverWorseThanNWOnGapRuns(t *testing.T) {
	sc := AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1}
	f := func(aRaw, bRaw []byte) bool {
		a, b := quickCodes(aRaw, 40, 4), quickCodes(bRaw, 40, 4)
		gt := GotohCodes(a, b, sc)
		if !Validate(gt, len(a), len(b)) {
			return false
		}
		nw := NeedlemanWunschCodes(a, b)
		return AffineScore(gt, sc) >= AffineScore(nw, sc)
	}
	if err := quick.Check(f, quickConfig(120, 12)); err != nil {
		t.Error(err)
	}
}

func TestGotohAlignerAdapter(t *testing.T) {
	s := codesOf("abc")
	steps := GotohAlignerCodes(s, s)
	if !Validate(steps, 3, 3) || countOps(steps)[OpMatch] != 3 {
		t.Errorf("adapter misaligned identical input: %v", steps)
	}
}

func BenchmarkGotoh500(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	s1 := randCodes(r, 500, 8)
	s2 := randCodes(r, 500, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GotohCodes(s1, s2, DefaultAffineScoring)
	}
}
