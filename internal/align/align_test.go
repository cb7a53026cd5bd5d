package align

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// strEq builds an EqFunc over two strings.
func strEq(a, b string) EqFunc {
	return func(i, j int) bool { return a[i] == b[j] }
}

func alignStrings(t *testing.T, a, b string) []Step {
	t.Helper()
	steps := NeedlemanWunsch(len(a), len(b), strEq(a, b), DefaultScoring)
	if !Validate(steps, len(a), len(b)) {
		t.Fatalf("invalid alignment of %q and %q: %v", a, b, steps)
	}
	return steps
}

func countOps(steps []Step) map[Op]int {
	c := map[Op]int{}
	for _, s := range steps {
		c[s.Op]++
	}
	return c
}

func TestNWIdentical(t *testing.T) {
	steps := alignStrings(t, "hello", "hello")
	c := countOps(steps)
	if c[OpMatch] != 5 || len(steps) != 5 {
		t.Errorf("identical strings should fully match: %v", steps)
	}
}

func TestNWDisjoint(t *testing.T) {
	steps := alignStrings(t, "aaa", "bbb")
	c := countOps(steps)
	if c[OpMatch] != 0 {
		t.Errorf("disjoint strings must not match: %v", steps)
	}
}

func TestNWClassicExample(t *testing.T) {
	// The canonical GATTACA example.
	steps := alignStrings(t, "GCATGCG", "GATTACA")
	c := countOps(steps)
	if c[OpMatch] < 4 {
		t.Errorf("expected at least 4 matches, got %d (%v)", c[OpMatch], steps)
	}
}

func TestNWEmpty(t *testing.T) {
	steps := alignStrings(t, "", "abc")
	if len(steps) != 3 || steps[0].Op != OpGapB {
		t.Errorf("empty A should yield all GapB: %v", steps)
	}
	steps = alignStrings(t, "abc", "")
	if len(steps) != 3 || steps[0].Op != OpGapA {
		t.Errorf("empty B should yield all GapA: %v", steps)
	}
	steps = alignStrings(t, "", "")
	if len(steps) != 0 {
		t.Errorf("empty/empty should be empty: %v", steps)
	}
}

func TestNWSubsequence(t *testing.T) {
	steps := alignStrings(t, "abc", "xaxbxcx")
	c := countOps(steps)
	if c[OpMatch] != 3 {
		t.Errorf("abc should fully embed in xaxbxcx: %v", steps)
	}
}

func TestDecomposeMismatches(t *testing.T) {
	steps := []Step{
		{Op: OpMatch, I: 0, J: 0},
		{Op: OpMismatch, I: 1, J: 1},
		{Op: OpMatch, I: 2, J: 2},
	}
	out := DecomposeMismatches(steps)
	if len(out) != 4 {
		t.Fatalf("want 4 steps, got %v", out)
	}
	if out[1].Op != OpGapA || out[2].Op != OpGapB {
		t.Errorf("mismatch should expand to GapA+GapB: %v", out)
	}
	if !Validate(out, 3, 3) {
		t.Error("decomposed alignment is invalid")
	}
	if cap(out) != len(out) {
		t.Errorf("output capacity %d, want exactly its %d columns", cap(out), len(out))
	}
}

func TestValidateRejectsBadAlignments(t *testing.T) {
	// Out-of-order indices.
	bad := []Step{{Op: OpMatch, I: 1, J: 0}, {Op: OpMatch, I: 0, J: 1}}
	if Validate(bad, 2, 2) {
		t.Error("out-of-order alignment accepted")
	}
	// Missing elements.
	short := []Step{{Op: OpMatch, I: 0, J: 0}}
	if Validate(short, 2, 1) {
		t.Error("incomplete alignment accepted")
	}
}

// optimal score via slow recursion for cross-checking on small inputs.
func slowScore(a, b string, sc Scoring) int {
	memo := map[[2]int]int{}
	var rec func(i, j int) int
	rec = func(i, j int) int {
		if i == len(a) {
			return (len(b) - j) * sc.Gap
		}
		if j == len(b) {
			return (len(a) - i) * sc.Gap
		}
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		sub := sc.Mismatch
		if a[i] == b[j] {
			sub = sc.Match
		}
		best := rec(i+1, j+1) + sub
		if v := rec(i+1, j) + sc.Gap; v > best {
			best = v
		}
		if v := rec(i, j+1) + sc.Gap; v > best {
			best = v
		}
		memo[[2]int{i, j}] = best
		return best
	}
	return rec(0, 0)
}

func randSeq(r *rand.Rand, n int, alphabet string) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(buf)
}

func TestNWOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := randSeq(r, r.Intn(12), "abcd")
		b := randSeq(r, r.Intn(12), "abcd")
		steps := NeedlemanWunsch(len(a), len(b), strEq(a, b), DefaultScoring)
		if !Validate(steps, len(a), len(b)) {
			t.Fatalf("invalid alignment of %q, %q", a, b)
		}
		got := Score(steps, DefaultScoring)
		want := slowScore(a, b, DefaultScoring)
		if got != want {
			t.Fatalf("NW score %d != optimal %d for %q, %q", got, want, a, b)
		}
	}
}

func TestHirschbergMatchesNW(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		a := randSeq(r, r.Intn(40), "abc")
		b := randSeq(r, r.Intn(40), "abc")
		h := Hirschberg(len(a), len(b), strEq(a, b), DefaultScoring)
		if !Validate(h, len(a), len(b)) {
			t.Fatalf("hirschberg invalid for %q, %q: %v", a, b, h)
		}
		nw := NeedlemanWunsch(len(a), len(b), strEq(a, b), DefaultScoring)
		if Score(h, DefaultScoring) != Score(nw, DefaultScoring) {
			t.Fatalf("hirschberg score %d != NW %d for %q, %q",
				Score(h, DefaultScoring), Score(nw, DefaultScoring), a, b)
		}
	}
}

func TestHirschbergProperty(t *testing.T) {
	// Property: for any pair of byte strings, Hirschberg produces a valid
	// alignment whose score equals the NW optimum.
	f := func(aRaw, bRaw []byte) bool {
		a := aRaw
		b := bRaw
		if len(a) > 60 {
			a = a[:60]
		}
		if len(b) > 60 {
			b = b[:60]
		}
		eq := func(i, j int) bool { return a[i]%8 == b[j]%8 }
		h := Hirschberg(len(a), len(b), eq, DefaultScoring)
		if !Validate(h, len(a), len(b)) {
			return false
		}
		nw := NeedlemanWunsch(len(a), len(b), eq, DefaultScoring)
		return Score(h, DefaultScoring) == Score(nw, DefaultScoring)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAlignDispatch(t *testing.T) {
	a := randSeq(rand.New(rand.NewSource(3)), 100, "ab")
	b := randSeq(rand.New(rand.NewSource(4)), 100, "ab")
	steps := Align(len(a), len(b), strEq(a, b), DefaultScoring)
	if !Validate(steps, len(a), len(b)) {
		t.Fatal("Align produced invalid alignment")
	}
}

func TestSmithWatermanLocal(t *testing.T) {
	// A shared core surrounded by noise: local alignment should recover
	// exactly the core.
	a := "xxxxCOMMONyyyy"
	b := "ppppppCOMMONq"
	steps := SmithWaterman(len(a), len(b), strEq(a, b), DefaultScoring)
	matches := countOps(steps)[OpMatch]
	if matches != 6 {
		t.Errorf("expected 6 local matches, got %d: %v", matches, steps)
	}
	for _, s := range steps {
		if s.Op == OpMatch && a[s.I] != b[s.J] {
			t.Error("match step aligns unequal elements")
		}
	}
}

func TestSmithWatermanNoSimilarity(t *testing.T) {
	steps := SmithWaterman(3, 3, func(i, j int) bool { return false }, DefaultScoring)
	if steps != nil {
		t.Errorf("expected nil for dissimilar inputs, got %v", steps)
	}
}

func TestScoreComputation(t *testing.T) {
	steps := []Step{
		{Op: OpMatch}, {Op: OpMatch}, {Op: OpMismatch}, {Op: OpGapA}, {Op: OpGapB},
	}
	if got := Score(steps, DefaultScoring); got != 2-1-1-1 {
		t.Errorf("Score = %d, want -1", got)
	}
}

// refNW is the reference Needleman–Wunsch the coded kernels are
// property-tested against: the textbook full score matrix in int, then a
// traceback that re-derives each column from the scores — diagonal when the
// diagonal move attains the cell's score, else up (a gap in b), else left —
// instead of replaying recorded directions. It also returns the matrix's
// last row, which refHirschberg splits on.
func refNW(a, b []uint32, sc Scoring) ([]Step, []int) {
	n, m := len(a), len(b)
	h := make([][]int, n+1)
	for i := range h {
		h[i] = make([]int, m+1)
		h[i][0] = i * sc.Gap
	}
	for j := range h[0] {
		h[0][j] = j * sc.Gap
	}
	sub := func(i, j int) int {
		if a[i-1] == b[j-1] {
			return sc.Match
		}
		return sc.Mismatch
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			h[i][j] = max(h[i-1][j-1]+sub(i, j), h[i-1][j]+sc.Gap, h[i][j-1]+sc.Gap)
		}
	}
	var steps []Step
	for i, j := n, m; i > 0 || j > 0; {
		switch {
		case i > 0 && j > 0 && h[i][j] == h[i-1][j-1]+sub(i, j):
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			steps = append(steps, Step{Op: op, I: i - 1, J: j - 1})
			i, j = i-1, j-1
		case i > 0 && h[i][j] == h[i-1][j]+sc.Gap:
			steps = append(steps, Step{Op: OpGapA, I: i - 1, J: -1})
			i--
		default:
			steps = append(steps, Step{Op: OpGapB, I: -1, J: j - 1})
			j--
		}
	}
	slices.Reverse(steps)
	return steps, h[n]
}

// refHirschberg is Hirschberg's recursion over refNW: split a at its middle
// and b at the first column maximizing prefix plus suffix score, down to
// direct alignment once either side has at most one element.
func refHirschberg(a, b []uint32, sc Scoring) []Step {
	n, m := len(a), len(b)
	if n <= 1 || m <= 1 {
		steps, _ := refNW(a, b, sc)
		return steps
	}
	mid := n / 2
	_, pre := refNW(a[:mid], b, sc)
	_, suf := refNW(reversed(a[mid:]), reversed(b), sc)
	split := 0
	for j := range pre {
		if pre[j]+suf[m-j] > pre[split]+suf[m-split] {
			split = j
		}
	}
	steps := refHirschberg(a[:mid], b[:split], sc)
	for _, s := range refHirschberg(a[mid:], b[split:], sc) {
		if s.I >= 0 {
			s.I += mid
		}
		if s.J >= 0 {
			s.J += split
		}
		steps = append(steps, s)
	}
	return steps
}

func reversed(s []uint32) []uint32 {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

// dirtyPools hands garbage-filled buffers to the scratch pools, so the next
// kernel calls draw recycled memory that any missed initialization would
// read. Byte garbage is drawn from the valid direction codes as well as
// invalid ones, so a stale direction can yield a wrong path, not a panic.
func dirtyPools(rng *rand.Rand) {
	bs := getBytes(1 << 14)
	for i := range bs {
		bs[i] = byte(rng.Intn(5))
	}
	putBytes(bs)
	is := getInt32(1 << 10)
	for i := range is {
		is[i] = rng.Int31() - 1<<30
	}
	putInt32(is)
	cs := getCells(1 << 10)
	for i := range cs {
		cs[i] = nwCell{code: uint32(rng.Intn(4)), score: rng.Int31() - 1<<30}
	}
	putCells(cs)
}

// TestCodedKernelsMatchOracle property-tests the coded kernels against the
// reference for exact step equality: tie-heavy alphabets of 1–3 codes,
// empty and single-element sides, odd and even row counts (Hirschberg's
// middle split), the lopsided 300×2 and 2×300 shapes, random sizes, and a
// scoring whose gap undercuts two mismatches — all on dirty pooled scratch.
func TestCodedKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(name string, a, b []uint32, sc Scoring, got, want []Step) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s diverges from the reference on a=%v b=%v %+v:\ngot  %v\nwant %v",
				name, a, b, sc, got, want)
		}
	}
	shapes := [][2]int{
		{0, 0}, {0, 6}, {6, 0}, {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3},
		{5, 8}, {8, 5}, {16, 17}, {17, 16}, {300, 2}, {2, 300},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [2]int{rng.Intn(40), rng.Intn(40)})
	}
	for _, sc := range []Scoring{DefaultScoring, {Match: 3, Mismatch: -2, Gap: -4}} {
		for alphabet := 1; alphabet <= 3; alphabet++ {
			for _, sh := range shapes {
				for trial := 0; trial < 2; trial++ {
					a := randCodes(rng, sh[0], alphabet)
					b := randCodes(rng, sh[1], alphabet)
					want, _ := refNW(a, b, sc)
					dirtyPools(rng)
					check("NeedlemanWunschCodes", a, b, sc, NeedlemanWunschCodes(a, b, sc), want)
					dirtyPools(rng)
					check("AlignCodes", a, b, sc, AlignCodes(a, b, sc), want) // direct route at these sizes
					dirtyPools(rng)
					check("HirschbergCodes", a, b, sc, HirschbergCodes(a, b, sc), refHirschberg(a, b, sc))
				}
			}
		}
	}
}

func BenchmarkNeedlemanWunsch500(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	s1 := randSeq(r, 500, "abcdefgh")
	s2 := randSeq(r, 500, "abcdefgh")
	eq := strEq(s1, s2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NeedlemanWunsch(len(s1), len(s2), eq, DefaultScoring)
	}
}

func BenchmarkHirschberg500(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	s1 := randSeq(r, 500, "abcdefgh")
	s2 := randSeq(r, 500, "abcdefgh")
	eq := strEq(s1, s2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hirschberg(len(s1), len(s2), eq, DefaultScoring)
	}
}
