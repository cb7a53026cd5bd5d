package align

// AffineScoring scores alignments with affine gap penalties: opening a gap
// costs GapOpen+GapExtend, each further blank in the same gap costs only
// GapExtend. Affine penalties concentrate divergent code into fewer,
// longer runs — for function merging that means fewer func_id diamonds for
// the same amount of unmerged code (the paper's §III-C notes alternative
// algorithms trade alignment quality differently).
type AffineScoring struct {
	Match     int
	Mismatch  int
	GapOpen   int // additional cost for the first blank of a run
	GapExtend int // cost per blank
}

// DefaultAffineScoring mirrors the paper's linear scheme, plus one gap
// penalty to open each gap, which discourages scattered gaps.
var DefaultAffineScoring = AffineScoring{Match: 1, Mismatch: -1, GapOpen: -1, GapExtend: -1}

// AffineScore computes the total affine-gap score of an alignment.
func AffineScore(steps []Step, sc AffineScoring) int {
	total := 0
	prev := Op(-1)
	for _, s := range steps {
		switch s.Op {
		case OpMatch:
			total += sc.Match
		case OpMismatch:
			total += sc.Mismatch
		case OpGapA, OpGapB:
			total += sc.GapExtend
			if s.Op != prev {
				total += sc.GapOpen
			}
		}
		prev = s.Op
	}
	return total
}

// GapRuns counts maximal runs of consecutive gap columns, the quantity
// affine penalties minimize (each run is one potential func_id diamond).
func GapRuns(steps []Step) int {
	runs := 0
	inRun := false
	for _, s := range steps {
		gap := s.Op == OpGapA || s.Op == OpGapB
		if gap && !inRun {
			runs++
		}
		inRun = gap
	}
	return runs
}
