package align

// The alignment kernels. Equivalence is one integer comparison on a flat
// slice of codes, which the compiler keeps in registers and branch
// predictors resolve.
//
// Every kernel is deterministic: the same recurrences in int32 arithmetic,
// the same tie-breaks (diagonal, then up, then left; gap-open preferred over
// extend on ties) and the same traceback order for the same codes, whatever
// the pooled scratch held before. TestCodedKernelsMatchOracle in
// align_test.go pins Needleman–Wunsch and Hirschberg step for step to a
// textbook reference; the Gotoh and banded kernels are property-tested
// against exhaustive optimal scores.

// CodedFunc is the signature of a global-alignment algorithm over two code
// sequences.
type CodedFunc func(a, b []uint32, sc Scoring) []Step

// AlignCodes is the default aligner: it routes between direct
// Needleman–Wunsch and linear-space Hirschberg by problem size (useDirect).
func AlignCodes(a, b []uint32, sc Scoring) []Step {
	if useDirect(len(a), len(b)) {
		return NeedlemanWunschCodes(a, b, sc)
	}
	return HirschbergCodes(a, b, sc)
}

// NeedlemanWunschCodes computes an optimal global alignment with full
// dynamic programming (O(n·m) time and traceback space). Under
// DefaultScoring the fill is bit-parallel (nwBitCodes); any other Scoring
// takes the scalar row kernel. Both return the same steps.
func NeedlemanWunschCodes(a, b []uint32, sc Scoring) []Step {
	n, m := len(a), len(b)
	if n == 0 {
		steps := make([]Step, 0, m)
		for j := 0; j < m; j++ {
			steps = append(steps, Step{Op: OpGapB, I: -1, J: j})
		}
		return steps
	}
	if m == 0 {
		steps := make([]Step, 0, n)
		for i := 0; i < n; i++ {
			steps = append(steps, Step{Op: OpGapA, I: i, J: -1})
		}
		return steps
	}

	if sc == DefaultScoring {
		return nwBitCodes(a, b)
	}

	// Every cell the traceback can reach is written before it is read, so
	// dirty pooled buffers are harmless. The score rows roll in place
	// through cells (see nwCell), so only the direction matrix is O(n·m).
	cells := loadCells(m, b, sc.Gap, false)
	dirs := getBytes((n + 1) * (m + 1))
	for j := 1; j <= m; j++ {
		dirs[j] = dirLeft
	}
	mat, mis, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	for i := 1; i <= n; i++ {
		row := dirs[i*(m+1):][: m+1 : m+1]
		row[0] = dirUp
		nwRowCodes(row[1:], cells, a[i-1], int32(i-1)*gap, mat, mis, gap)
	}

	// Walk the path once to count its columns, then again to fill an
	// exact-size result from the back: the steps come out in order with no
	// append growth, no reversal pass and no slack capacity.
	k := 0
	for i, j := n, m; i > 0 || j > 0; k++ {
		switch dirs[i*(m+1)+j] {
		case dirDiag:
			i, j = i-1, j-1
		case dirUp:
			i--
		case dirLeft:
			j--
		default:
			panic("align: corrupt traceback")
		}
	}
	steps := make([]Step, k)
	for i, j := n, m; i > 0 || j > 0; {
		k--
		switch dirs[i*(m+1)+j] {
		case dirDiag:
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			steps[k] = Step{Op: op, I: i - 1, J: j - 1}
			i, j = i-1, j-1
		case dirUp:
			steps[k] = Step{Op: OpGapA, I: i - 1, J: -1}
			i--
		default:
			steps[k] = Step{Op: OpGapB, I: -1, J: j - 1}
			j--
		}
	}
	putCells(cells)
	putBytes(dirs)
	return steps
}

// nwCell is one column j ≥ 1 of the rolling dynamic-programming row that the
// coded Needleman–Wunsch kernels share: b's code for the column and the score
// of the column's cell in the row above, which the row pass overwrites with
// the current row's score. Keeping the code beside the score, and rolling one
// row in place instead of swapping two, leaves the inner loop two streams to
// walk, so its per-cell state stays in registers.
type nwCell struct {
	code  uint32
	score int32
}

// loadCells returns pooled cells for an m-column row, scored as row 0
// (cell j holds j·gap) and coded with b, or b reversed when rev is set.
func loadCells(m int, b []uint32, gap int, rev bool) []nwCell {
	cells := getCells(m)
	for j := range cells {
		c := b[j]
		if rev {
			c = b[m-1-j]
		}
		cells[j] = nwCell{code: c, score: int32((j + 1) * gap)}
	}
	return cells
}

// nwRowCodes advances cells by one Needleman–Wunsch row for a's element ai
// and writes the direction of each of the row's cells 1..m to row. pd enters
// as the column-0 score of the row above; this row's column-0 score is
// pd + gap. pd and left then carry the previous column's score in the row
// above and in this row in registers instead of re-reading them from the
// rows.
func nwRowCodes(row []byte, cells []nwCell, ai uint32, pd, mat, mis, gap int32) {
	row = row[:len(cells)]
	left := pd + gap
	for j := range cells {
		c := &cells[j]
		sub := mis
		if ai == c.code {
			sub = mat
		}
		// Branch-free select (DESIGN.md §8): the strict "up > diag" and
		// "left > max(diag, up)" tests become 0/1 bits, and with
		// dirDiag/dirUp/dirLeft = 1/2/3, 1+upW picks diag or up while OR-ing
		// in 3 forces left — so ties still resolve diagonal, then up, then
		// left. Both tests compile to a compare and a flag set.
		d, u, l := pd+sub, c.score+gap, left+gap
		best := max(d, u)
		upW, lfW := b2u(u > d), b2u(l > best)
		best = max(best, l)
		pd = c.score
		c.score = best
		row[j] = (1 + upW) | lfW*3
		left = best
	}
}

// nwScoreRowCodes is nwRowCodes without directions, for the score-only
// passes of Hirschberg: the same values through the same max.
func nwScoreRowCodes(cells []nwCell, ai uint32, pd, mat, mis, gap int32) {
	left := pd + gap
	for j := range cells {
		c := &cells[j]
		sub := mis
		if ai == c.code {
			sub = mat
		}
		best := max(pd+sub, c.score+gap, left+gap)
		pd = c.score
		c.score = best
		left = best
	}
}

// b2u is the 0/1 value of a comparison; the compiler lowers it to a
// flag-setting instruction, not a branch.
func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// HirschbergCodes computes an optimal global alignment in O(n+m) space
// with Hirschberg's divide-and-conquer refinement of Needleman–Wunsch: split
// a at its middle and b at the first column maximizing prefix plus suffix
// score, and recurse. Its score equals NeedlemanWunschCodes'; the columns may
// differ among co-optimal alignments.
func HirschbergCodes(a, b []uint32, sc Scoring) []Step {
	var out []Step
	hirschRecCodes(0, len(a), 0, len(b), a, b, sc, &out)
	return out
}

func hirschRecCodes(aLo, aHi, bLo, bHi int, a, b []uint32, sc Scoring, out *[]Step) {
	n, m := aHi-aLo, bHi-bLo
	switch {
	case n == 0:
		for j := bLo; j < bHi; j++ {
			*out = append(*out, Step{Op: OpGapB, I: -1, J: j})
		}
		return
	case m == 0:
		for i := aLo; i < aHi; i++ {
			*out = append(*out, Step{Op: OpGapA, I: i, J: -1})
		}
		return
	case n == 1 || m == 1:
		steps := NeedlemanWunschCodes(a[aLo:aHi], b[bLo:bHi], sc)
		for _, s := range steps {
			if s.I >= 0 {
				s.I += aLo
			}
			if s.J >= 0 {
				s.J += bLo
			}
			*out = append(*out, s)
		}
		return
	}

	mid := aLo + n/2
	scoreL := nwLastRowCodes(aLo, mid, bLo, bHi, a, b, sc, false)
	scoreR := nwLastRowCodes(mid, aHi, bLo, bHi, a, b, sc, true)

	best, bestJ := scoreL[0]+scoreR[m], 0
	for j := 1; j <= m; j++ {
		if s := scoreL[j] + scoreR[m-j]; s > best {
			best, bestJ = s, j
		}
	}
	putInt32(scoreL)
	putInt32(scoreR)
	hirschRecCodes(aLo, mid, bLo, bLo+bestJ, a, b, sc, out)
	hirschRecCodes(mid, aHi, bLo+bestJ, bHi, a, b, sc, out)
}

// nwLastRowCodes computes the final row of the score matrix for
// a[aLo:aHi] × b[bLo:bHi], or of both ranges reversed (suffix alignment
// scores) when rev is set. The returned row is pooled scratch — the caller
// passes it to putInt32 when done.
func nwLastRowCodes(aLo, aHi, bLo, bHi int, a, b []uint32, sc Scoring, rev bool) []int32 {
	n, m := aHi-aLo, bHi-bLo
	// Loading b's band reversed for the suffix pass lets both directions
	// share one forward row kernel.
	cells := loadCells(m, b[bLo:bHi], sc.Gap, rev)
	mat, mis, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	for i := 1; i <= n; i++ {
		ai := a[aLo+i-1]
		if rev {
			ai = a[aHi-i]
		}
		nwScoreRowCodes(cells, ai, int32(i-1)*gap, mat, mis, gap)
	}
	out := getInt32(m + 1)
	out[0] = int32(n) * gap
	for j, c := range cells {
		out[j+1] = c.score
	}
	putCells(cells)
	return out
}

// GotohCodes computes an optimal global alignment under affine gap
// penalties using Gotoh's three-matrix dynamic program, O(n·m) time and
// traceback space. M[i][j] is the best score ending in a match/mismatch
// column, X[i][j] in a gap in B (consuming a[i-1]) and Y[i][j] in a gap in A
// (consuming b[j-1]); ties prefer opening a gap over extending one.
func GotohCodes(a, b []uint32, sc AffineScoring) []Step {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return NeedlemanWunschCodes(a, b, Scoring{
			Match: sc.Match, Mismatch: sc.Mismatch, Gap: sc.GapExtend,
		})
	}

	const negInf = int32(-1 << 29)
	w := m + 1
	// All six matrices are recycled scratch: the score matrices are fully
	// written (borders in the init loops, the rest in the DP loop), and the
	// traceback never reads the unwritten border cells of tbM because no
	// optimal path enters a negInf score cell. Each tb matrix records where
	// its value came from: tbM 1=M, 2=X, 3=Y (diagonal predecessor), tbX
	// 1=M-open, 2=X-extend, tbY 1=M-open, 3=Y-extend.
	M := getInt32((n + 1) * w)
	X := getInt32((n + 1) * w)
	Y := getInt32((n + 1) * w)
	tbM := getBytes((n + 1) * w)
	tbX := getBytes((n + 1) * w)
	tbY := getBytes((n + 1) * w)
	at := func(i, j int) int { return i*w + j }

	open := int32(sc.GapOpen + sc.GapExtend)
	ext := int32(sc.GapExtend)

	M[at(0, 0)] = 0
	X[at(0, 0)] = negInf
	Y[at(0, 0)] = negInf
	for i := 1; i <= n; i++ {
		M[at(i, 0)] = negInf
		Y[at(i, 0)] = negInf
		X[at(i, 0)] = open + int32(i-1)*ext
		tbX[at(i, 0)] = 2
	}
	for j := 1; j <= m; j++ {
		M[at(0, j)] = negInf
		X[at(0, j)] = negInf
		Y[at(0, j)] = open + int32(j-1)*ext
		tbY[at(0, j)] = 3
	}

	mat, mis := int32(sc.Match), int32(sc.Mismatch)
	for i := 1; i <= n; i++ {
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			sub := mis
			if ai == b[j-1] {
				sub = mat
			}
			bm, src := M[at(i-1, j-1)], byte(1)
			if X[at(i-1, j-1)] > bm {
				bm, src = X[at(i-1, j-1)], 2
			}
			if Y[at(i-1, j-1)] > bm {
				bm, src = Y[at(i-1, j-1)], 3
			}
			M[at(i, j)] = bm + sub
			tbM[at(i, j)] = src

			xo := M[at(i-1, j)] + open
			xe := X[at(i-1, j)] + ext
			if xo >= xe {
				X[at(i, j)] = xo
				tbX[at(i, j)] = 1
			} else {
				X[at(i, j)] = xe
				tbX[at(i, j)] = 2
			}

			yo := M[at(i, j-1)] + open
			ye := Y[at(i, j-1)] + ext
			if yo >= ye {
				Y[at(i, j)] = yo
				tbY[at(i, j)] = 1
			} else {
				Y[at(i, j)] = ye
				tbY[at(i, j)] = 3
			}
		}
	}

	state := byte(1)
	best := M[at(n, m)]
	if X[at(n, m)] > best {
		best, state = X[at(n, m)], 2
	}
	if Y[at(n, m)] > best {
		state = 3
	}

	var rev []Step
	i, j := n, m
	for i > 0 || j > 0 {
		switch state {
		case 1:
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			rev = append(rev, Step{Op: op, I: i - 1, J: j - 1})
			state = tbM[at(i, j)]
			i--
			j--
		case 2:
			rev = append(rev, Step{Op: OpGapA, I: i - 1, J: -1})
			state = tbX[at(i, j)]
			i--
		case 3:
			rev = append(rev, Step{Op: OpGapB, I: -1, J: j - 1})
			state = tbY[at(i, j)]
			j--
		default:
			panic("align: corrupt gotoh traceback")
		}
	}
	putInt32(M)
	putInt32(X)
	putInt32(Y)
	putBytes(tbM)
	putBytes(tbX)
	putBytes(tbY)
	for x, y := 0, len(rev)-1; x < y; x, y = x+1, y-1 {
		rev[x], rev[y] = rev[y], rev[x]
	}
	return rev
}

// GotohAlignerCodes adapts GotohCodes to the CodedFunc shape: the linear
// Scoring's Gap is the extension penalty and one extra gap penalty the
// opening cost.
func GotohAlignerCodes(a, b []uint32, sc Scoring) []Step {
	return GotohCodes(a, b, AffineScoring{
		Match:     sc.Match,
		Mismatch:  sc.Mismatch,
		GapOpen:   sc.Gap,
		GapExtend: sc.Gap,
	})
}

// BandedCodes computes a global alignment restricted to a diagonal band of
// the dynamic-programming matrix, widened to cover the length difference so
// the corner cell stays reachable. Cost drops from O(n·m) to O((n+m)·band)
// at the price of optimality — alignments that would need to shift code by
// more than the band width degrade into gaps. Sequence alignment dominates
// FMSA's compile time (paper Fig. 13, §V-C); banding is the classic
// bioinformatics response to that trade-off. When the band covers the whole
// matrix it runs direct Needleman–Wunsch, and when the banded matrix would be
// oversized it falls back to AlignCodes.
func BandedCodes(a, b []uint32, sc Scoring, band int) []Step {
	n, m := len(a), len(b)
	if band <= 0 {
		band = 1
	}
	if n == 0 || m == 0 {
		return NeedlemanWunschCodes(a, b, sc)
	}
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if band < diff+1 {
		band = diff + 1
	}
	if band >= n+m {
		return NeedlemanWunschCodes(a, b, sc)
	}
	width := 2*band + 1
	if n+1 > maxDirectCells/width {
		return AlignCodes(a, b, sc)
	}

	const negInf = int32(-1 << 29)
	// score[i][k] holds the score of cell (i, j) with j = i - band + k,
	// clipped to valid j. Both matrices are recycled scratch: score is
	// explicitly initialized to negInf below, and dirs cells are only read
	// at cells the traceback reaches — all of which were written, because
	// unwritten cells keep score negInf and negInf cells are never chosen
	// as predecessors.
	score := getInt32((n + 1) * width)
	dirs := getBytes((n + 1) * width)
	at := func(i, k int) int { return i*width + k }
	jOf := func(i, k int) int { return i - band + k }
	kOf := func(i, j int) int { return j - i + band }

	for i := 0; i <= n; i++ {
		for k := 0; k < width; k++ {
			score[at(i, k)] = negInf
		}
	}
	score[at(0, kOf(0, 0))] = 0
	for j := 1; j <= m && kOf(0, j) < width; j++ {
		score[at(0, kOf(0, j))] = int32(j * sc.Gap)
		dirs[at(0, kOf(0, j))] = dirLeft
	}

	for i := 1; i <= n; i++ {
		for k := 0; k < width; k++ {
			j := jOf(i, k)
			if j < 0 || j > m {
				continue
			}
			best, dir := negInf, byte(0)
			if j == 0 {
				best, dir = int32(i*sc.Gap), dirUp
			}
			if i > 0 && j > 0 {
				if prev := score[at(i-1, k)]; prev > negInf {
					sub := sc.Mismatch
					if a[i-1] == b[j-1] {
						sub = sc.Match
					}
					if v := prev + int32(sub); v > best {
						best, dir = v, dirDiag
					}
				}
			}
			if k+1 < width {
				if prev := score[at(i-1, k+1)]; prev > negInf {
					if v := prev + int32(sc.Gap); v > best {
						best, dir = v, dirUp
					}
				}
			}
			if k-1 >= 0 {
				if prev := score[at(i, k-1)]; prev > negInf {
					if v := prev + int32(sc.Gap); v > best {
						best, dir = v, dirLeft
					}
				}
			}
			if dir != 0 {
				score[at(i, k)] = best
				dirs[at(i, k)] = dir
			}
		}
	}

	var rev []Step
	i, j := n, m
	for i > 0 || j > 0 {
		k := kOf(i, j)
		if k < 0 || k >= width {
			panic("align: banded traceback left the band")
		}
		switch dirs[at(i, k)] {
		case dirDiag:
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			rev = append(rev, Step{Op: op, I: i - 1, J: j - 1})
			i--
			j--
		case dirUp:
			rev = append(rev, Step{Op: OpGapA, I: i - 1, J: -1})
			i--
		case dirLeft:
			rev = append(rev, Step{Op: OpGapB, I: -1, J: j - 1})
			j--
		default:
			panic("align: corrupt banded traceback")
		}
	}
	putInt32(score)
	putBytes(dirs)
	for x, y := 0, len(rev)-1; x < y; x, y = x+1, y-1 {
		rev[x], rev[y] = rev[y], rev[x]
	}
	return rev
}

// BandedAlignerCodes returns a CodedFunc-shaped adapter with a fixed band.
func BandedAlignerCodes(band int) CodedFunc {
	return func(a, b []uint32, sc Scoring) []Step {
		return BandedCodes(a, b, sc, band)
	}
}
