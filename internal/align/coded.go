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
type CodedFunc func(a, b []uint32) []Step

// AlignCodes is the default aligner: it routes between direct
// Needleman–Wunsch and linear-space Hirschberg by problem size (useDirect).
func AlignCodes(a, b []uint32) []Step {
	if useDirect(len(a), len(b)) {
		return NeedlemanWunschCodes(a, b)
	}
	return HirschbergCodes(a, b)
}

// NeedlemanWunschCodes computes an optimal global alignment with full
// dynamic programming (O(n·m) time and traceback space), filled
// bit-parallel by nwBitCodes.
func NeedlemanWunschCodes(a, b []uint32) []Step {
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
	return nwBitCodes(nil, a, b)
}

// HirschbergCodes computes an optimal global alignment in O(n+m) space
// with Hirschberg's divide-and-conquer refinement of Needleman–Wunsch: split
// a at its middle and b at the first column maximizing prefix plus suffix
// score, and recurse. Its score equals NeedlemanWunschCodes'; the columns may
// differ among co-optimal alignments.
func HirschbergCodes(a, b []uint32) []Step {
	rev := make([]uint32, len(a)+len(b))
	ra, rb := rev[:len(a)], rev[len(a):]
	for i, c := range a {
		ra[len(a)-1-i] = c
	}
	for j, c := range b {
		rb[len(b)-1-j] = c
	}
	scores := make([]int32, 2*(len(b)+1))
	h := hirschberg{
		a: a, b: b, ra: ra, rb: rb,
		scoreL: scores[:len(b)+1], scoreR: scores[len(b)+1:],
		out: make([]Step, 0, len(a)+len(b)),
	}
	h.rec(0, len(a), 0, len(b))
	return h.out
}

// hirschberg is one HirschbergCodes call: the two sequences, their reversed
// copies for the suffix score passes, the two score rows every split
// reuses (a split reads them before it recurses), and the steps emitted so
// far, which the one-row base cases append to in place.
type hirschberg struct {
	a, b, ra, rb   []uint32
	scoreL, scoreR []int32
	out            []Step
}

func (h *hirschberg) rec(aLo, aHi, bLo, bHi int) {
	n, m := aHi-aLo, bHi-bLo
	switch {
	case n == 0:
		for j := bLo; j < bHi; j++ {
			h.out = append(h.out, Step{Op: OpGapB, I: -1, J: j})
		}
		return
	case m == 0:
		for i := aLo; i < aHi; i++ {
			h.out = append(h.out, Step{Op: OpGapA, I: i, J: -1})
		}
		return
	case n == 1 || m == 1:
		start := len(h.out)
		h.out = nwBitCodes(h.out, h.a[aLo:aHi], h.b[bLo:bHi])
		for k := start; k < len(h.out); k++ {
			if h.out[k].I >= 0 {
				h.out[k].I += aLo
			}
			if h.out[k].J >= 0 {
				h.out[k].J += bLo
			}
		}
		return
	}

	// The suffix scores of a[mid:aHi] × b[bLo:bHi] are the last row of the
	// reversed ranges, which sit at the mirrored offsets of ra and rb.
	mid := aLo + n/2
	na, nb := len(h.a), len(h.b)
	scoreL := lastRowBits(h.scoreL, h.a[aLo:mid], h.b[bLo:bHi])
	scoreR := lastRowBits(h.scoreR, h.ra[na-aHi:na-mid], h.rb[nb-bHi:nb-bLo])

	best, bestJ := scoreL[0]+scoreR[m], 0
	for j := 1; j <= m; j++ {
		if s := scoreL[j] + scoreR[m-j]; s > best {
			best, bestJ = s, j
		}
	}
	h.rec(aLo, mid, bLo, bLo+bestJ)
	h.rec(mid, aHi, bLo+bestJ, bHi)
}

// GotohCodes computes an optimal global alignment under affine gap
// penalties using Gotoh's three-matrix dynamic program, O(n·m) time and
// traceback space. M[i][j] is the best score ending in a match/mismatch
// column, X[i][j] in a gap in B (consuming a[i-1]) and Y[i][j] in a gap in A
// (consuming b[j-1]); ties prefer opening a gap over extending one.
func GotohCodes(a, b []uint32, sc AffineScoring) []Step {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return NeedlemanWunschCodes(a, b)
	}

	const negInf = int32(-1 << 29)
	w := m + 1
	// The score matrices are fully written (borders in the init loops, the
	// rest in the DP loop), and the traceback never reads the border cells
	// of tbM because no optimal path enters a negInf score cell. Each tb
	// matrix records where its value came from: tbM 1=M, 2=X, 3=Y (diagonal
	// predecessor), tbX 1=M-open, 2=X-extend, tbY 1=M-open, 3=Y-extend.
	M := make([]int32, (n+1)*w)
	X := make([]int32, (n+1)*w)
	Y := make([]int32, (n+1)*w)
	tbM := make([]byte, (n+1)*w)
	tbX := make([]byte, (n+1)*w)
	tbY := make([]byte, (n+1)*w)
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
	for x, y := 0, len(rev)-1; x < y; x, y = x+1, y-1 {
		rev[x], rev[y] = rev[y], rev[x]
	}
	return rev
}

// GotohAlignerCodes is GotohCodes under DefaultAffineScoring, in the
// CodedFunc shape.
func GotohAlignerCodes(a, b []uint32) []Step {
	return GotohCodes(a, b, DefaultAffineScoring)
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
func BandedCodes(a, b []uint32, band int) []Step {
	n, m := len(a), len(b)
	if band <= 0 {
		band = 1
	}
	if n == 0 || m == 0 {
		return NeedlemanWunschCodes(a, b)
	}
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if band < diff+1 {
		band = diff + 1
	}
	if band >= n+m {
		return NeedlemanWunschCodes(a, b)
	}
	width := 2*band + 1
	if n+1 > maxDirectCells/width {
		return AlignCodes(a, b)
	}

	const negInf = int32(-1 << 29)
	// score[i][k] holds the score of cell (i, j) with j = i - band + k,
	// clipped to valid j. score is explicitly initialized to negInf below,
	// and dirs cells are only read at cells the traceback reaches — all of
	// which were written, because unwritten cells keep score negInf and
	// negInf cells are never chosen as predecessors.
	score := make([]int32, (n+1)*width)
	dirs := make([]byte, (n+1)*width)
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
		score[at(0, kOf(0, j))] = int32(j * gapScore)
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
				best, dir = int32(i*gapScore), dirUp
			}
			if i > 0 && j > 0 {
				if prev := score[at(i-1, k)]; prev > negInf {
					sub := int32(mismatchScore)
					if a[i-1] == b[j-1] {
						sub = matchScore
					}
					if v := prev + sub; v > best {
						best, dir = v, dirDiag
					}
				}
			}
			if k+1 < width {
				if prev := score[at(i-1, k+1)]; prev > negInf {
					if v := prev + gapScore; v > best {
						best, dir = v, dirUp
					}
				}
			}
			if k-1 >= 0 {
				if prev := score[at(i, k-1)]; prev > negInf {
					if v := prev + gapScore; v > best {
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
	for x, y := 0, len(rev)-1; x < y; x, y = x+1, y-1 {
		rev[x], rev[y] = rev[y], rev[x]
	}
	return rev
}

// BandedAlignerCodes returns a CodedFunc-shaped adapter with a fixed band.
func BandedAlignerCodes(band int) CodedFunc {
	return func(a, b []uint32) []Step {
		return BandedCodes(a, b, band)
	}
}
