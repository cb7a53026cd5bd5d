package core

import (
	"sync/atomic"
	"time"

	"fmsa/internal/align"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
)

// Timings accumulates wall-clock time per merge phase, feeding the Fig. 13
// compile-time breakdown, plus the alignment-kernel counters behind the
// fmsa-bench perf lines.
//
// Concurrency contract: one Timings value may be shared by any number of
// concurrent Merge calls — Merge only ever accumulates through the atomic
// Add* methods. Reading the fields directly is safe only once every merge
// sharing the value has returned (the exploration framework reads them once,
// after its final commit). Under parallel exploration the fields sum CPU
// time across workers, so per-phase totals can exceed wall-clock time.
type Timings struct {
	Linearize time.Duration
	Align     time.Duration
	CodeGen   time.Duration

	// AlignCells counts dynamic-programming cells computed (n·m per kernel
	// invocation). With Options.Memo set, the counters below depend on
	// speculative-attempt scheduling, so their values may vary with the
	// worker count even though the merge results never do.
	AlignCells int64
	// SeqCacheHits/Misses count Options.Memo entry lookups. An entry is
	// created, and its function encoded, on a miss: the function's first
	// lookup, and its first after a Drop.
	SeqCacheHits, SeqCacheMisses int64
	// BoundEvals counts pre-codegen profitability-bound evaluations and
	// CodegenSkips the subset that pruned code generation (Options.Prune).
	// Like the cache counters, with Workers > 1 the values depend on how
	// many speculative attempts ran, so they may vary across worker counts
	// even though the merge results never do.
	BoundEvals, CodegenSkips int64
}

// AddLinearize atomically accumulates linearization time.
func (t *Timings) AddLinearize(d time.Duration) {
	atomic.AddInt64((*int64)(&t.Linearize), int64(d))
}

// AddAlign atomically accumulates alignment time.
func (t *Timings) AddAlign(d time.Duration) {
	atomic.AddInt64((*int64)(&t.Align), int64(d))
}

// AddCodeGen atomically accumulates code-generation time.
func (t *Timings) AddCodeGen(d time.Duration) {
	atomic.AddInt64((*int64)(&t.CodeGen), int64(d))
}

// AddAlignCells atomically accumulates computed DP cells.
func (t *Timings) AddAlignCells(n int64) {
	atomic.AddInt64(&t.AlignCells, n)
}

// CountSeqCache atomically records one memo encoding lookup.
func (t *Timings) CountSeqCache(hit bool) {
	if hit {
		atomic.AddInt64(&t.SeqCacheHits, 1)
	} else {
		atomic.AddInt64(&t.SeqCacheMisses, 1)
	}
}

// CountBound atomically records one profitability-bound evaluation and
// whether it pruned code generation.
func (t *Timings) CountBound(pruned bool) {
	atomic.AddInt64(&t.BoundEvals, 1)
	if pruned {
		atomic.AddInt64(&t.CodegenSkips, 1)
	}
}

// Options configures a merge operation. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// Align is the alignment algorithm, run over the two sequences'
	// equivalence codes (defaults to align.AlignCodes, which picks
	// Needleman–Wunsch or Hirschberg by problem size).
	Align align.CodedFunc
	// Order is the linearization traversal order (paper default: RPO).
	Order linearize.Order
	// ReuseParams enables sharing parameters of identical type between the
	// two merged functions (§III-E, Fig. 6). Disabling it is the
	// parameter-merging ablation.
	ReuseParams bool
	// NamePrefix prefixes generated merged-function names.
	NamePrefix string
	// Timings, when non-nil, accumulates per-phase wall-clock time.
	Timings *Timings
	// Memo, when non-nil, serves both functions' linearization, encoding,
	// φ check, sizes and branch floors (see FuncMemo); it must be built for
	// Order and for Prune's target. Nil linearizes and measures inline.
	Memo *FuncMemo
	// Interner supplies equivalence codes for inline encoding when Memo is
	// nil. Nil means a fresh table for each Merge call.
	Interner *encode.Interner
	// Prune, when non-nil, enables pre-codegen profitability bounding:
	// Merge evaluates the admissible profit upper bound right after
	// alignment and returns ErrHopeless — skipping code generation — when
	// the bound proves the profit cannot exceed Prune.MinProfit. Pruning
	// never changes merge decisions: a pruned pair is one the exact cost
	// model (evaluated with the same Target and CallerStats) would reject.
	Prune *PruneSpec
	// BoundAudit, when non-nil, turns pruning into a differential check:
	// Merge computes the bound, still generates the merged function, and on
	// success reports (bound, exact profit) to the hook. Requires Prune for
	// the cost-model inputs; pairs where bounding bails (constant-branch
	// hazard) are not reported. The hook may be called from concurrent
	// merges and must be safe for that.
	BoundAudit func(f1, f2 *ir.Func, bound, exact int)
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Align:       align.AlignCodes,
		Order:       linearize.OrderRPO,
		ReuseParams: true,
		NamePrefix:  "__merged",
	}
}

// Stats describes one merge operation, for reporting and for the
// compile-time breakdown experiment (Fig. 13).
type Stats struct {
	// Len1 and Len2 are the linearized sequence lengths.
	Len1, Len2 int
	// MatchedColumns counts aligned columns emitted once.
	MatchedColumns int
	// GapColumns counts columns unique to one function.
	GapColumns int
	// Selects counts operand-select instructions inserted.
	Selects int
	// DispatchBlocks counts label-disagreement dispatch blocks inserted.
	DispatchBlocks int
	// HasFuncID reports whether the merged function needed the
	// function-identifier parameter.
	HasFuncID bool
}
