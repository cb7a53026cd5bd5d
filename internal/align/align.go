// Package align implements pairwise global alignment of two sequences of
// equivalence-class codes: the Needleman–Wunsch alignment used by the paper
// (§III-C), a Hirschberg linear-space variant for long sequences, and the
// affine-gap (Gotoh) and banded variants of the alignment-algorithm
// ablation.
//
// Sequences are flat []uint32 slices: the caller interns each element
// (a linearized IR entry) into a code such that two elements are equivalent
// exactly when their codes are equal (internal/encode), so a
// dynamic-programming cell compares two integers. Every aligner has the
// CodedFunc signature; AlignCodes is the one production uses.
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

// The paper's scoring scheme (§III-C), the only one the linear-gap kernels
// use: matches are rewarded, and mismatches and gaps equally penalized.
const (
	matchScore    = 1
	mismatchScore = -1
	gapScore      = -1
)

// maxDirectCells bounds the traceback matrix of direct Needleman–Wunsch;
// larger problems are routed to the linear-space Hirschberg algorithm. At
// the bound the bit-parallel fill's delta planes take about 8 MiB (4 bits
// a cell). Both routes run the same bit-parallel row kernel, but the route
// decides which of the co-optimal alignments comes back, so moving the
// bound would change merges.
const maxDirectCells = 1 << 24

// useDirect reports whether an n×m problem fits the direct Needleman–Wunsch
// traceback matrix. The bound is checked by division rather than as
// n*m <= maxDirectCells: for very long sequences the product can overflow
// int and wrap to a small (or negative) value, which would route a
// multi-gigabyte problem to the direct kernel. For every non-overflowing
// pair the two forms agree exactly.
func useDirect(n, m int) bool {
	return n == 0 || m == 0 || n <= maxDirectCells/m
}

// Direction codes for the banded kernel's traceback matrix.
const (
	dirDiag byte = iota + 1
	dirUp        // gap in B (consume A)
	dirLeft      // gap in A (consume B)
)

// Score computes the total score of an alignment under the paper's scheme.
func Score(steps []Step) int {
	total := 0
	for _, s := range steps {
		switch s.Op {
		case OpMatch:
			total += matchScore
		case OpMismatch:
			total += mismatchScore
		default:
			total += gapScore
		}
	}
	return total
}

// DecomposeMismatches rewrites every mismatch column as a pair of gap
// columns (A[i] vs blank, then blank vs B[j]). This lowers the score (each
// split mismatch scores −2 instead of −1), but nothing reads the score
// after decomposition: the merger needs only the invariant that every
// column is then either an exact match or code unique to one input.
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
