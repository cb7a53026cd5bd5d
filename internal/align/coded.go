package align

// Coded kernels: the same alignment algorithms specialized to pre-encoded
// sequences of equivalence-class codes (internal/encode). The closure kernels
// call an EqFunc per dynamic-programming cell — for IR sequences that is a
// structural instruction walk behind an indirect call, millions of times per
// merge attempt. Here equivalence is one integer comparison on a flat slice,
// which the compiler keeps in registers and branch predictors resolve.
//
// Every coded kernel is a twin of its closure counterpart — same
// recurrences in the same int32 arithmetic, same deterministic tie-breaks
// (diagonal, then up, then left; gap-open preferred over extend on ties),
// same traceback order, same pooled scratch discipline — so for any code
// assignment with codes(a)[i] == codes(b)[j] ⇔ eq(i, j), the returned []Step
// is bit-identical to the closure kernel's. The cross-check tests in
// coded_test.go, the reference-oracle property test in align_test.go and the
// explore-level kernel experiment enforce this.

// CodedFunc is the signature of a coded-sequence global-alignment algorithm,
// the fast-path analogue of core.AlignFunc.
type CodedFunc func(a, b []uint32, sc Scoring) []Step

// AlignCodes is the coded analogue of Align: it routes between direct
// Needleman–Wunsch and linear-space Hirschberg with the same size rule, so
// the two dispatchers always pick twin kernels for the same problem.
func AlignCodes(a, b []uint32, sc Scoring) []Step {
	if useDirect(len(a), len(b)) {
		return NeedlemanWunschCodes(a, b, sc)
	}
	return HirschbergCodes(a, b, sc)
}

// NeedlemanWunschCodes is the coded twin of NeedlemanWunsch.
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

	// Same scratch discipline as the closure kernel: every cell the
	// traceback can reach is written before it is read, so dirty pooled
	// buffers are harmless. The score rows roll in place through cells
	// (see nwCell), so only the direction matrix is O(n·m).
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
// above and in this row in registers — the values the closure kernel
// re-reads from its rows.
func nwRowCodes(row []byte, cells []nwCell, ai uint32, pd, mat, mis, gap int32) {
	row = row[:len(cells)]
	left := pd + gap
	for j := range cells {
		c := &cells[j]
		sub := mis
		if ai == c.code {
			sub = mat
		}
		// Branch-free select (DESIGN.md §8): the closure kernel's strict
		// "up > diag" and "left > max(diag, up)" tests become 0/1 bits, and
		// with dirDiag/dirUp/dirLeft = 1/2/3, 1+upW picks diag or up while
		// OR-ing in 3 forces left — so ties still resolve diagonal, then up,
		// then left. Both tests compile to a compare and a flag set.
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

// HirschbergCodes is the coded twin of Hirschberg: O(n+m) space, identical
// split choices (the first maximizing split wins), so identical steps.
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

// nwLastRowCodes is the coded twin of nwLastRow. The returned row is pooled
// scratch — the caller passes it to putInt32 when done.
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

// GotohCodes is the coded twin of Gotoh (affine gap penalties, three-matrix
// dynamic program with the same open-over-extend tie preference).
func GotohCodes(a, b []uint32, sc AffineScoring) []Step {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return NeedlemanWunschCodes(a, b, Scoring{
			Match: sc.Match, Mismatch: sc.Mismatch, Gap: sc.GapExtend,
		})
	}

	const negInf = int32(-1 << 29)
	w := m + 1
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

// GotohAlignerCodes is the coded twin of GotohAligner: linear Scoring's Gap
// as the extension penalty and one extra gap penalty as the opening cost.
func GotohAlignerCodes(a, b []uint32, sc Scoring) []Step {
	return GotohCodes(a, b, AffineScoring{
		Match:     sc.Match,
		Mismatch:  sc.Mismatch,
		GapOpen:   sc.Gap,
		GapExtend: sc.Gap,
	})
}

// BandedCodes is the coded twin of Banded, with the same band widening and
// the same fallbacks (direct NW when the band covers the whole matrix, the
// standard dispatcher when the banded matrix would be oversized).
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

// BandedAlignerCodes returns a CodedFunc-shaped adapter with a fixed band,
// the coded twin of BandedAligner.
func BandedAlignerCodes(band int) CodedFunc {
	return func(a, b []uint32, sc Scoring) []Step {
		return BandedCodes(a, b, sc, band)
	}
}
