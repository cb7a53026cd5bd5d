package explore

// The exploration-scoped per-function memo (core.FuncMemo): each pool
// function's linearization, encoding, φ verdict, code size, call size and
// branch floors, kept so the O(pool·t) speculative merge attempts stop
// recomputing them for the same functions. The run setup creates it empty;
// an entry fills on its function's first lookup by a merge attempt, so
// functions no attempt reaches are never encoded. Alignment itself is not
// cached: every attempt aligns its pair afresh, as in the paper.
//
// Determinism: the memo is semantically invisible. A hit returns exactly
// what recomputation would, and a commit drops every function it mutates
// (the merged inputs and every caller whose call sites Commit rewrites).
// Which attempts hit is scheduling-dependent under Workers > 1, so the
// hit/miss counters may vary across worker counts — the committed merges,
// the report records and the final module never do (TestKernelCrossCheck
// and TestParallelDeterminism run with the memo on and off).

import (
	"fmsa/internal/core"
	"fmsa/internal/ir"
)

// staleAfterCommit lists every function whose memo entry the pending commit
// will invalidate: the two merged inputs, plus every caller function —
// Commit rewrites their call instructions to target the merged function,
// which changes their linearized sequences and sizes. Must run BEFORE
// res.Commit(): committing drains the originals' use lists.
func staleAfterCommit(res *core.Result) []*ir.Func {
	seen := map[*ir.Func]bool{res.F1: true, res.F2: true}
	out := []*ir.Func{res.F1, res.F2}
	for _, fn := range []*ir.Func{res.F1, res.F2} {
		for _, call := range fn.Callers() {
			blk := call.Parent()
			if blk == nil {
				continue
			}
			if p := blk.Parent(); p != nil && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// refreshSeqs applies a commit's invalidations: one Drop per stale
// function. Re-encoding is deliberately lazy — the next lookup of a dropped
// function recomputes on miss — because an eager refresh is quadratic in
// practice: a chain-merged function that calls much of the pool is a caller
// invalidated by nearly every subsequent commit, and re-encoding its
// thousands of entries each time costs far more than the alignment work the
// memo exists to feed. Runs serially between evaluation waves, so no
// in-flight attempt reads a dropped entry.
func (r *runner) refreshSeqs(stale []*ir.Func) {
	for _, f := range stale {
		r.memo.Drop(f)
	}
}
