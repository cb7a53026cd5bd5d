package align

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// codesOf turns a string into one code per byte, so tests can spell
// sequences as literals.
func codesOf(s string) []uint32 {
	c := make([]uint32, len(s))
	for i := range s {
		c[i] = uint32(s[i])
	}
	return c
}

func alignStrings(t *testing.T, a, b string) []Step {
	t.Helper()
	steps := NeedlemanWunschCodes(codesOf(a), codesOf(b))
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

// slowScore is the optimal linear-gap score by memoized recursion, for
// cross-checking the kernels on small inputs.
func slowScore(a, b []uint32) int {
	memo := map[[2]int]int{}
	var rec func(i, j int) int
	rec = func(i, j int) int {
		if i == len(a) {
			return (len(b) - j) * gapScore
		}
		if j == len(b) {
			return (len(a) - i) * gapScore
		}
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		sub := mismatchScore
		if a[i] == b[j] {
			sub = matchScore
		}
		best := rec(i+1, j+1) + sub
		if v := rec(i+1, j) + gapScore; v > best {
			best = v
		}
		if v := rec(i, j+1) + gapScore; v > best {
			best = v
		}
		memo[[2]int{i, j}] = best
		return best
	}
	return rec(0, 0)
}

func TestNWOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := randCodes(r, r.Intn(12), 4)
		b := randCodes(r, r.Intn(12), 4)
		steps := NeedlemanWunschCodes(a, b)
		if !Validate(steps, len(a), len(b)) {
			t.Fatalf("invalid alignment of %v, %v", a, b)
		}
		got := Score(steps)
		want := slowScore(a, b)
		if got != want {
			t.Fatalf("NW score %d != optimal %d for %v, %v", got, want, a, b)
		}
	}
}

func TestHirschbergMatchesNW(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		a := randCodes(r, r.Intn(40), 3)
		b := randCodes(r, r.Intn(40), 3)
		h := HirschbergCodes(a, b)
		if !Validate(h, len(a), len(b)) {
			t.Fatalf("hirschberg invalid for %v, %v: %v", a, b, h)
		}
		nw := NeedlemanWunschCodes(a, b)
		if Score(h) != Score(nw) {
			t.Fatalf("hirschberg score %d != NW %d for %v, %v",
				Score(h), Score(nw), a, b)
		}
	}
}

// quickConfig is a testing/quick configuration with a fixed seed, so a
// property test checks the same inputs on every run.
func quickConfig(maxCount int, seed int64) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// quickCodes truncates a quick-generated byte string to at most n elements
// and reduces it to an alphabet of k codes, so matches are common.
func quickCodes(raw []byte, n, k int) []uint32 {
	c := make([]uint32, min(len(raw), n))
	for i := range c {
		c[i] = uint32(raw[i]) % uint32(k)
	}
	return c
}

func TestHirschbergProperty(t *testing.T) {
	// Property: for any pair of byte strings, Hirschberg produces a valid
	// alignment whose score equals the NW optimum.
	f := func(aRaw, bRaw []byte) bool {
		a, b := quickCodes(aRaw, 60, 8), quickCodes(bRaw, 60, 8)
		h := HirschbergCodes(a, b)
		if !Validate(h, len(a), len(b)) {
			return false
		}
		nw := NeedlemanWunschCodes(a, b)
		return Score(h) == Score(nw)
	}
	if err := quick.Check(f, quickConfig(150, 16)); err != nil {
		t.Error(err)
	}
}

// TestAlignDispatch checks the dispatcher on the direct route: below the
// size threshold AlignCodes is exactly NeedlemanWunschCodes.
func TestAlignDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range [][2]int{{0, 0}, {0, 7}, {7, 0}, {100, 100}, {200, 300}} {
		a := randCodes(rng, sh[0], 2)
		b := randCodes(rng, sh[1], 2)
		steps := AlignCodes(a, b)
		if !Validate(steps, len(a), len(b)) {
			t.Fatalf("AlignCodes produced an invalid %dx%d alignment", sh[0], sh[1])
		}
		if !slices.Equal(steps, NeedlemanWunschCodes(a, b)) {
			t.Fatalf("AlignCodes diverges from NeedlemanWunschCodes at %dx%d", sh[0], sh[1])
		}
	}
}

func TestScoreComputation(t *testing.T) {
	steps := []Step{
		{Op: OpMatch}, {Op: OpMatch}, {Op: OpMismatch}, {Op: OpGapA}, {Op: OpGapB},
	}
	if got := Score(steps); got != 2-1-1-1 {
		t.Errorf("Score = %d, want -1", got)
	}
}

// refNW is the reference Needleman–Wunsch the kernels are property-tested
// against: the textbook full score matrix, then a traceback that re-derives
// each column from the scores — diagonal when the diagonal move attains the
// cell's score, else up (a gap in b), else left — instead of replaying
// recorded directions. It also returns the matrix's last row, which
// refHirschberg splits on.
func refNW(a, b []uint32) ([]Step, []int32) {
	return refBandNW(a, b, -1)
}

// refNWSteps is refNW without its last row, in the kernels' shape.
func refNWSteps(a, b []uint32) []Step {
	steps, _ := refNW(a, b)
	return steps
}

// refBandNW is refNW restricted to the cells with |i−j| ≤ band, or to every
// cell when band < 0: a move may only come from a cell inside the band.
func refBandNW(a, b []uint32, band int) ([]Step, []int32) {
	n, m := len(a), len(b)
	gap := int32(gapScore)
	in := func(i, j int) bool { return band < 0 || abs(i-j) <= band }
	h := make([][]int32, n+1)
	for i := range h {
		h[i] = make([]int32, m+1)
	}
	// moves gives the score each in-band move into (i, j) reaches, in
	// tie-break order: diagonal, up, left.
	moves := func(i, j int) (val [3]int32, ok [3]bool) {
		if i > 0 && j > 0 && in(i-1, j-1) {
			sub := int32(mismatchScore)
			if a[i-1] == b[j-1] {
				sub = matchScore
			}
			val[0], ok[0] = h[i-1][j-1]+sub, true
		}
		if i > 0 && in(i-1, j) {
			val[1], ok[1] = h[i-1][j]+gap, true
		}
		if j > 0 && in(i, j-1) {
			val[2], ok[2] = h[i][j-1]+gap, true
		}
		return val, ok
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i+j == 0 || !in(i, j) {
				continue
			}
			val, ok := moves(i, j)
			first := true
			for k := range val {
				if ok[k] && (first || val[k] > h[i][j]) {
					h[i][j], first = val[k], false
				}
			}
		}
	}
	var steps []Step
	for i, j := n, m; i > 0 || j > 0; {
		val, ok := moves(i, j)
		switch {
		case ok[0] && val[0] == h[i][j]:
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			steps = append(steps, Step{Op: op, I: i - 1, J: j - 1})
			i, j = i-1, j-1
		case ok[1] && val[1] == h[i][j]:
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

// refBanded is the reference for BandedCodes: the band widens to at least
// one cell and to the length difference plus one, so (n, m) stays
// reachable.
func refBanded(band int) func(a, b []uint32) []Step {
	return func(a, b []uint32) []Step {
		steps, _ := refBandNW(a, b, max(band, 1, abs(len(a)-len(b))+1))
		return steps
	}
}

// refGotoh is the reference affine-gap aligner: Gotoh's three full score
// matrices — M ends in a match or mismatch column, X in a gap in b, Y in a
// gap in a — then a traceback that re-derives each move from the scores:
// the first of M, X, Y attaining the best score, and a gap opened from M
// rather than extended when both attain it.
func refGotoh(a, b []uint32, sc AffineScoring) []Step {
	n, m := len(a), len(b)
	const negInf = -1 << 40
	open, ext := sc.GapOpen+sc.GapExtend, sc.GapExtend
	mat := func() [][]int {
		x := make([][]int, n+1)
		for i := range x {
			x[i] = make([]int, m+1)
			for j := range x[i] {
				x[i][j] = negInf
			}
		}
		return x
	}
	M, X, Y := mat(), mat(), mat()
	M[0][0] = 0
	for i := 1; i <= n; i++ {
		X[i][0] = open + (i-1)*ext
	}
	for j := 1; j <= m; j++ {
		Y[0][j] = open + (j-1)*ext
	}
	sub := func(i, j int) int {
		if a[i-1] == b[j-1] {
			return sc.Match
		}
		return sc.Mismatch
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			M[i][j] = max(M[i-1][j-1], X[i-1][j-1], Y[i-1][j-1]) + sub(i, j)
			X[i][j] = max(M[i-1][j]+open, X[i-1][j]+ext)
			Y[i][j] = max(M[i][j-1]+open, Y[i][j-1]+ext)
		}
	}
	// best names the first of M, X, Y holding the cell's best score.
	best := func(i, j int) byte {
		top := max(M[i][j], X[i][j], Y[i][j])
		switch top {
		case M[i][j]:
			return 'M'
		case X[i][j]:
			return 'X'
		}
		return 'Y'
	}
	var steps []Step
	state := best(n, m)
	for i, j := n, m; i > 0 || j > 0; {
		switch state {
		case 'M':
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			steps = append(steps, Step{Op: op, I: i - 1, J: j - 1})
			state = best(i-1, j-1)
			i, j = i-1, j-1
		case 'X':
			steps = append(steps, Step{Op: OpGapA, I: i - 1, J: -1})
			if X[i][j] != M[i-1][j]+open {
				state = 'X'
			} else {
				state = 'M'
			}
			i--
		default:
			steps = append(steps, Step{Op: OpGapB, I: -1, J: j - 1})
			if Y[i][j] != M[i][j-1]+open {
				state = 'Y'
			} else {
				state = 'M'
			}
			j--
		}
	}
	slices.Reverse(steps)
	return steps
}

// refGotohAligner is refGotoh in GotohAlignerCodes' shape.
func refGotohAligner(a, b []uint32) []Step {
	return refGotoh(a, b, DefaultAffineScoring)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// refHirschberg is Hirschberg's recursion over refNW: split a at its middle
// and b at the first column maximizing prefix plus suffix score, down to
// direct alignment once either side has at most one element.
func refHirschberg(a, b []uint32) []Step {
	n, m := len(a), len(b)
	if n <= 1 || m <= 1 {
		steps, _ := refNW(a, b)
		return steps
	}
	mid := n / 2
	_, pre := refNW(a[:mid], b)
	_, suf := refNW(reversed(a[mid:]), reversed(b))
	split := 0
	for j := range pre {
		if pre[j]+suf[m-j] > pre[split]+suf[m-split] {
			split = j
		}
	}
	steps := refHirschberg(a[:mid], b[:split])
	for _, s := range refHirschberg(a[mid:], b[split:]) {
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

// dirtyPools hands garbage-filled bit scratch to the scratch pool, so the
// next kernel calls draw recycled memory that any missed initialization
// would read.
func dirtyPools(rng *rand.Rand) {
	scr := getBitScratch()
	scr.planes = resize(scr.planes, 1<<10)
	for i := range scr.planes {
		scr.planes[i] = deltaWord{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	scr.masks = resize(scr.masks, 1<<10)
	for i := range scr.masks {
		scr.masks[i] = rng.Uint64()
	}
	scr.rowMask = resize(scr.rowMask, 1<<8)
	for i := range scr.rowMask {
		scr.rowMask[i] = rng.Intn(1 << 10)
	}
	scr.keys, scr.slots = resize(scr.keys, 1<<9), resize(scr.slots, 1<<9)
	for i := range scr.keys {
		scr.keys[i], scr.slots[i] = uint32(rng.Intn(4)), rng.Int31n(1<<8)
	}
	scr.steps = resize(scr.steps, 1<<10)
	for i := range scr.steps {
		scr.steps[i] = Step{Op: Op(rng.Intn(4)), I: rng.Intn(300), J: rng.Intn(300)}
	}
	putBitScratch(scr)
}

// TestCodedKernelsMatchOracle property-tests the coded kernels against the
// reference for exact step equality: tie-heavy alphabets of 1–3 codes,
// empty and single-element sides, odd and even row counts (Hirschberg's
// middle split), the lopsided 300×2 and 2×300 shapes and random sizes, all
// on dirty pooled scratch. It adds sides of 63–200 codes and 300×70/70×300
// over alphabets of 1–4 codes, so the bit-parallel fill's carries and
// shifts cross 64-column words in both orientations, and Hirschberg's
// score rows cross their 64-row mask blocks. Each pair also checks
// lastRowBits against the reference's last row, so an error in the score
// rows shows even where it moves no split.
func TestCodedKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(name string, a, b []uint32, got, want []Step) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s diverges from the reference on a=%v b=%v:\ngot  %v\nwant %v",
				name, a, b, got, want)
		}
	}
	// checkAll runs every routed kernel, and Hirschberg's score row, on one
	// pair, each on freshly dirtied scratch.
	checkAll := func(a, b []uint32) {
		t.Helper()
		want, last := refNW(a, b)
		dirtyPools(rng)
		if got := lastRowBits(nil, a, b); !slices.Equal(got, last) {
			t.Fatalf("lastRowBits diverges from the reference on a=%v b=%v:\ngot  %v\nwant %v", a, b, got, last)
		}
		dirtyPools(rng)
		check("NeedlemanWunschCodes", a, b, NeedlemanWunschCodes(a, b), want)
		dirtyPools(rng)
		check("AlignCodes", a, b, AlignCodes(a, b), want) // direct route at these sizes
		dirtyPools(rng)
		check("HirschbergCodes", a, b, HirschbergCodes(a, b), refHirschberg(a, b))
	}
	shapes := [][2]int{
		{0, 0}, {0, 6}, {6, 0}, {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3},
		{5, 8}, {8, 5}, {16, 17}, {17, 16}, {300, 2}, {2, 300},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [2]int{rng.Intn(40), rng.Intn(40)})
	}
	for alphabet := 1; alphabet <= 3; alphabet++ {
		for _, sh := range shapes {
			for trial := 0; trial < 2; trial++ {
				checkAll(randCodes(rng, sh[0], alphabet), randCodes(rng, sh[1], alphabet))
			}
		}
	}
	sides := []int{63, 64, 65, 127, 128, 129, 200}
	var wide [][2]int
	for _, n := range sides {
		for _, m := range sides {
			wide = append(wide, [2]int{n, m})
		}
	}
	wide = append(wide, [2]int{300, 70}, [2]int{70, 300})
	for alphabet := 1; alphabet <= 4; alphabet++ {
		for _, sh := range wide {
			checkAll(randCodes(rng, sh[0], alphabet), randCodes(rng, sh[1], alphabet))
		}
	}
}

func BenchmarkNeedlemanWunsch500(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	s1 := randCodes(r, 500, 8)
	s2 := randCodes(r, 500, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NeedlemanWunschCodes(s1, s2)
	}
}

// BenchmarkHirschberg times the linear-space kernel on random pairs over 8
// codes: two square shapes the direct kernel would also take, and 4097×4096,
// the first shape AlignCodes routes to Hirschberg (TestAlignCodesRouting).
func BenchmarkHirschberg(b *testing.B) {
	for _, shape := range [][2]int{{500, 500}, {2000, 2000}, {4097, 4096}} {
		n, m := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", n, m), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n + m)))
			s1 := randCodes(r, n, 8)
			s2 := randCodes(r, m, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alignSink = HirschbergCodes(s1, s2)
			}
		})
	}
}
