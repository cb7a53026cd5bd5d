// Package align implements pairwise sequence alignment algorithms over
// abstract sequences: the Needleman–Wunsch global alignment used by the
// paper (§III-C), a Hirschberg linear-space variant for long sequences, and
// Smith–Waterman local alignment for the alignment-algorithm ablation.
//
// Sequences are abstract: callers supply lengths and an equivalence
// predicate over index pairs, so the package never copies the underlying
// elements (linearized IR entries).
package align

// Op classifies one column of an alignment.
type Op int

// Alignment column kinds.
const (
	// OpMatch aligns equivalent elements A[I] and B[J].
	OpMatch Op = iota
	// OpMismatch aligns non-equivalent elements A[I] and B[J].
	OpMismatch
	// OpGapA pairs A[I] with a blank in B.
	OpGapA
	// OpGapB pairs B[J] with a blank in A.
	OpGapB
)

// String returns a one-letter code for the op (M, X, A, B).
func (o Op) String() string {
	switch o {
	case OpMatch:
		return "M"
	case OpMismatch:
		return "X"
	case OpGapA:
		return "A"
	case OpGapB:
		return "B"
	default:
		return "?"
	}
}

// Step is one column of an alignment. I indexes the first sequence and J the
// second; an index is -1 when its side of the column is a blank.
type Step struct {
	Op   Op
	I, J int
}

// Scoring assigns weights to matches, mismatches and gaps. The paper uses a
// standard scheme rewarding matches and equally penalizing mismatches and
// gaps.
type Scoring struct {
	Match    int
	Mismatch int
	Gap      int
}

// DefaultScoring is the paper's scheme: matches rewarded, mismatches and
// gaps equally penalized.
var DefaultScoring = Scoring{Match: 1, Mismatch: -1, Gap: -1}

// EqFunc reports whether A[i] and B[j] are equivalent.
type EqFunc func(i, j int) bool

// maxDirectCells bounds the traceback matrix of direct Needleman–Wunsch;
// larger problems are routed to the linear-space Hirschberg algorithm.
const maxDirectCells = 1 << 24 // 16M cells ≈ 16 MiB of direction bytes

// Align computes an optimal global alignment of two sequences of lengths n
// and m, choosing between direct Needleman–Wunsch and the linear-space
// Hirschberg variant based on problem size.
func Align(n, m int, eq EqFunc, sc Scoring) []Step {
	if useDirect(n, m) {
		return NeedlemanWunsch(n, m, eq, sc)
	}
	return Hirschberg(n, m, eq, sc)
}

// useDirect reports whether an n×m problem fits the direct Needleman–Wunsch
// traceback matrix. The bound is checked by division rather than as
// n*m <= maxDirectCells: for very long sequences the product can overflow
// int and wrap to a small (or negative) value, which would route a
// multi-gigabyte problem to the direct kernel. For every non-overflowing
// pair the two forms agree exactly, so the routing of all realistic inputs
// is unchanged. AlignCodes shares this predicate so both dispatchers always
// pick twin kernels.
func useDirect(n, m int) bool {
	return n == 0 || m == 0 || n <= maxDirectCells/m
}

// Direction codes for the traceback matrix.
const (
	dirDiag byte = iota + 1
	dirUp        // gap in B (consume A)
	dirLeft      // gap in A (consume B)
)

// NeedlemanWunsch computes an optimal global alignment with full dynamic
// programming (O(n·m) time and traceback space).
func NeedlemanWunsch(n, m int, eq EqFunc, sc Scoring) []Step {
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

	// Rolling score rows plus a full direction matrix for traceback, all
	// recycled scratch. Every cell the traceback can reach is written below
	// — dirs[at(0,0)] is the only unwritten cell, and the traceback stops
	// before reading it — so stale pooled contents are harmless.
	prev := getInt32(m + 1)
	cur := getInt32(m + 1)
	dirs := getBytes((n + 1) * (m + 1))
	at := func(i, j int) int { return i*(m+1) + j }

	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = int32(j * sc.Gap)
		dirs[at(0, j)] = dirLeft
	}
	for i := 1; i <= n; i++ {
		cur[0] = int32(i * sc.Gap)
		dirs[at(i, 0)] = dirUp
		for j := 1; j <= m; j++ {
			sub := sc.Mismatch
			if eq(i-1, j-1) {
				sub = sc.Match
			}
			diag := prev[j-1] + int32(sub)
			up := prev[j] + int32(sc.Gap)
			left := cur[j-1] + int32(sc.Gap)
			// Tie-break toward diagonal, then up, matching the classic
			// formulation; determinism matters for reproducibility.
			best, dir := diag, dirDiag
			if up > best {
				best, dir = up, dirUp
			}
			if left > best {
				best, dir = left, dirLeft
			}
			cur[j] = best
			dirs[at(i, j)] = dir
		}
		prev, cur = cur, prev
	}

	// Traceback.
	var rev []Step
	i, j := n, m
	for i > 0 || j > 0 {
		switch dirs[at(i, j)] {
		case dirDiag:
			op := OpMismatch
			if eq(i-1, j-1) {
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
			panic("align: corrupt traceback")
		}
	}
	putInt32(prev)
	putInt32(cur)
	putBytes(dirs)
	// Reverse in place.
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// Score computes the total score of an alignment under sc.
func Score(steps []Step, sc Scoring) int {
	total := 0
	for _, s := range steps {
		switch s.Op {
		case OpMatch:
			total += sc.Match
		case OpMismatch:
			total += sc.Mismatch
		default:
			total += sc.Gap
		}
	}
	return total
}

// DecomposeMismatches rewrites every mismatch column as a pair of gap
// columns (A[i] vs blank, then blank vs B[j]). When the mismatch penalty
// does not undercut two gaps, the result has equal score, and it simplifies
// merged-code generation: every aligned column is then either an exact
// match or code unique to one input.
func DecomposeMismatches(steps []Step) []Step {
	mis := 0
	for _, s := range steps {
		if s.Op == OpMismatch {
			mis++
		}
	}
	out := make([]Step, 0, len(steps)+mis)
	for _, s := range steps {
		if s.Op == OpMismatch {
			out = append(out, Step{Op: OpGapA, I: s.I, J: -1}, Step{Op: OpGapB, I: -1, J: s.J})
			continue
		}
		out = append(out, s)
	}
	return out
}

// Validate checks structural invariants of an alignment of sequences with
// lengths n and m: indices on each side appear exactly once, in increasing
// order, and every column consumes at least one element. It returns false
// if any invariant is violated.
func Validate(steps []Step, n, m int) bool {
	wantI, wantJ := 0, 0
	for _, s := range steps {
		switch s.Op {
		case OpMatch, OpMismatch:
			if s.I != wantI || s.J != wantJ {
				return false
			}
			wantI++
			wantJ++
		case OpGapA:
			if s.I != wantI || s.J != -1 {
				return false
			}
			wantI++
		case OpGapB:
			if s.J != wantJ || s.I != -1 {
				return false
			}
			wantJ++
		default:
			return false
		}
	}
	return wantI == n && wantJ == m
}
