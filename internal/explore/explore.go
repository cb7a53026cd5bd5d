// Package explore implements the paper's exploration framework (§IV,
// Fig. 7): fingerprints are precomputed for every function, a ranking
// mechanism selects the top candidates for each function, merges are
// attempted greedily in rank order, and committed merges feed back into the
// work list so merged functions can merge again. An oracle mode performs
// the exhaustive quadratic exploration the ranking replaces.
//
// The pipeline is parallel and incremental: fingerprinting, the initial
// ranking build and the per-pop candidate evaluations fan out across a
// bounded worker pool (Options.Workers), and rankings are maintained by an
// incremental cache instead of rescanning the whole pool on every worklist
// pop (see cache.go). Results are bit-identical for every Workers value —
// see parallel.go for the determinism rules.
package explore

import (
	"time"

	"fmsa/internal/analysis"
	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/par"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
)

// Options configures an exploration run.
type Options struct {
	// Threshold is the exploration threshold t: how many top-ranked
	// candidates to evaluate per function (paper Fig. 10 uses 1, 5, 10).
	Threshold int
	// Oracle replaces ranking with exhaustive evaluation of every pair,
	// choosing the most profitable candidate (paper's unrealistic upper
	// bound).
	Oracle bool
	// OracleCap, when positive, bounds the oracle to the top-OracleCap
	// ranked candidates per function instead of the whole pool. With the
	// top-1 candidate already covering ~89% of profitable merges (Fig. 8),
	// a generous cap approximates the exhaustive oracle at a fraction of
	// its quadratic cost; it is exact for pools no larger than the cap.
	OracleCap int
	// Target supplies the code-size cost model for profitability.
	Target tti.Target
	// Merge configures the underlying merge operations.
	Merge core.Options
	// MaxHotness, when positive, excludes functions whose profile weight
	// exceeds it (the §V-D profile-guided mitigation).
	MaxHotness uint64
	// MinSimilarity prunes candidate pairs below this fingerprint score.
	MinSimilarity float64
	// Partition, when non-nil, restricts merging to function pairs in the
	// same partition — modelling per-translation-unit optimization instead
	// of whole-program LTO (§IV-B). Functions missing from the map share
	// partition 0. Merged functions inherit their pair's partition.
	Partition map[*ir.Func]int
	// Workers bounds the goroutines used for fingerprinting, ranking and
	// speculative candidate evaluation. Zero means runtime.GOMAXPROCS(0);
	// one runs fully serial. Workers is purely an execution knob: the
	// committed merge sequence, the report and the final module are
	// identical for every value.
	Workers int
	// Audit gates winning candidates through the static merge auditor
	// (analysis.AuditMerge) before they commit. AuditCommitted records
	// diagnostics; AuditDeep additionally rejects merges whose flagged
	// behavior a differential interpretation run confirms. Auditing is
	// deterministic, so the Workers invariance holds in every mode.
	Audit AuditMode
	// Ranking selects the candidate-ranking path (see ranking.go): RankExact
	// (the default — full pool scans, the paper's mechanism) or RankLSH
	// (banded MinHash index with lsh.DefaultParams, sub-quadratic; falls
	// back to exact below DefaultLSHMinPool, a cutoff exploration never
	// re-evaluates as merges shrink the pool). Like Workers, Ranking LSH is
	// deterministic: the committed merge sequence is identical for every
	// Workers value, though it may differ from RankExact's when a probe
	// misses a candidate an exhaustive scan would have found. The unbounded
	// oracle ranks nothing and ignores this knob.
	Ranking RankingMode
	// Verify gates IR through the staged verifier (ir.VerifyFuncLevel):
	// every winning merged function is verified before the audit gate, and
	// the final module is verified once after the run. Like committed-mode
	// auditing, verification only records diagnostics — it never changes
	// merge decisions — so results stay bit-identical with it on or off.
	Verify ir.VerifyLevel

	// noMemo is the test hook that turns the per-function memo off (every
	// merge attempt re-linearizes and re-measures both inputs; see
	// caches.go). The memo is semantically invisible; the hook exists so
	// tests can prove it.
	noMemo bool
	// noBound is the test hook that disables pre-codegen profitability
	// bounding: every aligned candidate pair is materialized and priced
	// exactly. A pruned pair is one the exact cost model would have
	// rejected, so bounding never changes merge decisions;
	// TestBoundDecisionInvariance proves it.
	noBound bool
	// lshMinPool is the test hook that overrides DefaultLSHMinPool (so
	// small test pools engage the index); zero keeps the default.
	lshMinPool int
}

// DefaultOptions returns the paper's default configuration (t=1, Intel
// target) with parallelism across all available cores.
func DefaultOptions() Options {
	return Options{
		Threshold:     1,
		Target:        tti.X86{},
		Merge:         core.DefaultOptions(),
		MinSimilarity: 1e-9,
	}
}

// Phases is the per-phase breakdown of an exploration run (Fig. 13).
// Fingerprint, Ranking and UpdateCalls are wall-clock; Linearize, Align and
// CodeGen sum per-attempt time across workers, so under parallel
// exploration they can exceed the run's wall-clock time. CodeGen includes
// the teardown of rejected trial bodies (Result.Discard), so the phases sum
// to the run's wall time apart from loop overhead.
type Phases struct {
	Fingerprint time.Duration
	Ranking     time.Duration
	Linearize   time.Duration
	Align       time.Duration
	CodeGen     time.Duration
	UpdateCalls time.Duration
	// Audit is the time spent in the static merge auditor (plus deep-mode
	// differential runs). Zero when Options.Audit is AuditOff.
	Audit time.Duration
	// Verify is the time spent in the staged IR verifier. Zero when
	// Options.Verify is ir.VerifyOff.
	Verify time.Duration
}

// Total sums all phases.
func (p Phases) Total() time.Duration {
	return p.Fingerprint + p.Ranking + p.Linearize + p.Align + p.CodeGen + p.UpdateCalls + p.Audit + p.Verify
}

// MergeRecord describes one committed merge operation.
type MergeRecord struct {
	// Merged, F1, F2 are function names.
	Merged, F1, F2 string
	// Rank is the 1-based position of F2 in F1's candidate ranking
	// (0 in oracle mode).
	Rank int
	// Profit is the cost-model gain of the merge.
	Profit int
}

// Report summarizes an exploration run.
type Report struct {
	// MergeOps counts committed merge operations.
	MergeOps int
	// FullyRemoved counts original functions deleted outright.
	FullyRemoved int
	// CandidatesEvaluated counts attempted (aligned+generated) merges. In
	// greedy mode the count follows the sequential semantics — ranks up to
	// and including the committed one — even when speculative parallel
	// attempts evaluated further ranks that were then discarded.
	CandidatesEvaluated int
	// RankPositions holds, for each committed merge, the rank of the
	// successful candidate (Fig. 8 data).
	RankPositions []int
	// Records lists every committed merge.
	Records []MergeRecord
	// SizeBefore and SizeAfter are cost-model module sizes.
	SizeBefore, SizeAfter int
	// Phases is the per-phase time breakdown.
	Phases Phases
	// AuditedMerges counts winning candidates run through the auditor.
	AuditedMerges int
	// AuditFlagged counts audited merges with at least one diagnostic.
	AuditFlagged int
	// AuditEscalated counts flagged merges escalated to differential
	// interpretation (deep mode only).
	AuditEscalated int
	// AuditRejected counts merges rejected as confirmed miscompiles (deep
	// mode only).
	AuditRejected int
	// AuditDiags lists every diagnostic the auditor produced.
	AuditDiags []analysis.Diagnostic
	// RankProbes counts candidate pairs visited by ranking scans: pool
	// members in exact mode, probed bucket-mates (plus commit-time offers)
	// in LSH mode. The exact/LSH ratio is the ranking work LSH avoided.
	RankProbes int64
	// RankPrefilterSkips counts visited pairs dismissed by the cheap
	// alignment-avoidance bounds before exact similarity scoring. In exact
	// mode that includes the members a size-ordered scan never reached
	// because the size-ratio bound had already fallen below its floor.
	RankPrefilterSkips int64
	// RankFallbacks counts explorations that requested LSH ranking but fell
	// back to the exact scan because the pool was below DefaultLSHMinPool.
	RankFallbacks int
	// AlignCells counts dynamic-programming cells the alignment kernels
	// computed. Like the cache counters below, with Workers > 1 the value
	// depends on how many speculative attempts ran before each winner was
	// found, so it may vary across worker counts — the merge results above
	// never do.
	AlignCells int64
	// SeqCacheHits and SeqCacheMisses count linearization-cache lookups by
	// merge attempts (two per attempt when the cache is enabled).
	SeqCacheHits, SeqCacheMisses int64
	// AlignMemoHits and AlignMemoMisses are always zero: exploration no
	// longer memoizes alignments. They remain only for readers that still
	// name them.
	AlignMemoHits, AlignMemoMisses int64
	// BoundEvals counts pre-codegen profitability-bound evaluations and
	// CodegenSkips the subset that skipped merged-function materialization
	// outright. Zero when the noBound test hook is set. Scheduling-dependent
	// under Workers > 1, like the cache counters above.
	BoundEvals, CodegenSkips int64
	// VerifiedFuncs counts functions run through the staged IR verifier
	// (winning merged functions plus the final whole-module pass). Zero when
	// Options.Verify is ir.VerifyOff.
	VerifiedFuncs int64
	// VerifyDiags lists every finding the verifier produced; empty on a
	// healthy pipeline.
	VerifyDiags []ir.VerifyDiag
}

// Add folds a later pipeline stage's report into r: counts accumulate,
// SizeBefore keeps r's original value and SizeAfter takes the later stage's.
// The paper's protocol runs Identical merging before both SOA and FMSA
// (§V-A); Add combines the two stages into one comparable report.
func (r *Report) Add(later *Report) {
	r.MergeOps += later.MergeOps
	r.FullyRemoved += later.FullyRemoved
	r.CandidatesEvaluated += later.CandidatesEvaluated
	r.RankPositions = append(r.RankPositions, later.RankPositions...)
	r.Records = append(r.Records, later.Records...)
	r.SizeAfter = later.SizeAfter
	r.Phases.Fingerprint += later.Phases.Fingerprint
	r.Phases.Ranking += later.Phases.Ranking
	r.Phases.Linearize += later.Phases.Linearize
	r.Phases.Align += later.Phases.Align
	r.Phases.CodeGen += later.Phases.CodeGen
	r.Phases.UpdateCalls += later.Phases.UpdateCalls
	r.Phases.Audit += later.Phases.Audit
	r.Phases.Verify += later.Phases.Verify
	r.VerifiedFuncs += later.VerifiedFuncs
	r.VerifyDiags = append(r.VerifyDiags, later.VerifyDiags...)
	r.AuditedMerges += later.AuditedMerges
	r.AuditFlagged += later.AuditFlagged
	r.AuditEscalated += later.AuditEscalated
	r.AuditRejected += later.AuditRejected
	r.AuditDiags = append(r.AuditDiags, later.AuditDiags...)
	r.RankProbes += later.RankProbes
	r.RankPrefilterSkips += later.RankPrefilterSkips
	r.RankFallbacks += later.RankFallbacks
	r.AlignCells += later.AlignCells
	r.SeqCacheHits += later.SeqCacheHits
	r.SeqCacheMisses += later.SeqCacheMisses
	r.BoundEvals += later.BoundEvals
	r.CodegenSkips += later.CodegenSkips
}

// Reduction returns the relative code-size reduction in percent.
func (r *Report) Reduction() float64 {
	if r.SizeBefore == 0 {
		return 0
	}
	return 100 * float64(r.SizeBefore-r.SizeAfter) / float64(r.SizeBefore)
}

// candidate pairs a pool function with its similarity score. size breaks
// similarity ties: between equally similar candidates, the larger one
// offers more absolute savings and is evaluated first. pi is the function's
// pool index, the last tie-break (see before).
type candidate struct {
	fn   *ir.Func
	sim  float64
	size int32
	pi   int32
}

// runner carries the mutable state of one exploration run: the candidate
// pool, the FIFO worklist, the incremental ranking cache (optionally backed
// by an LSH index) and the report under construction.
type runner struct {
	m       *ir.Module
	opts    Options
	workers int
	rep     *Report

	// pool lists every function that ever entered the candidate pool, in
	// insertion order — the deterministic tie-break order of the ranking.
	// Consumed functions stay in the slice and are skipped via poolLive.
	// poolFPs and poolLive are parallel to pool, so the ranking scans — the
	// hottest loops of a run — index them directly instead of hashing
	// function pointers; poolIdx maps a member to its slot.
	pool      []*ir.Func
	poolIdx   map[*ir.Func]int32
	poolFPs   []*fingerprint.Fingerprint
	poolSizes []int32
	poolLive  []bool
	cache     *rankCache
	worklist  []*ir.Func
	// lsh is the MinHash index state; nil when ranking is exact or the pool
	// fell below the LSH cutoff.
	lsh *lshState
	// memo is the per-function memo (caches.go); nil when the noMemo hook
	// is set or the runner only snapshots rankings.
	memo *core.FuncMemo
	// rankProbes and rankSkips accumulate scan counters atomically (scans
	// run inside par.For); flushRankCounters folds them into rep. The
	// totals are deterministic: the same set of scans runs at every Workers
	// value.
	rankProbes, rankSkips int64
	// seed is the warm-session state driving this run; nil on a cold
	// standalone Run. neg and keys mirror seed's tables (nil without one).
	seed *warmSeed
	neg  *negMemo
	keys *keyTable
}

// setup builds the runner state shared by Run and the snapshotRanking
// test helper: φ-demotion, pool selection, parallel fingerprinting, the
// optional LSH index and the initial rank cache.
func setup(m *ir.Module, opts Options) *runner {
	return setupSeeded(m, opts, nil)
}

// setupSeeded is setup with an optional warm-session seed: fingerprints,
// the LSH index and (some) initial rankings come pre-built, keyed to the
// pool the session derived from the identical module state.
func setupSeeded(m *ir.Module, opts Options, seed *warmSeed) *runner {
	if opts.Threshold <= 0 {
		opts.Threshold = 1
	}
	if opts.Target == nil {
		opts.Target = tti.X86{}
	}
	r := &runner{
		m:       m,
		opts:    opts,
		workers: par.Workers(opts.Workers),
		rep:     &Report{SizeBefore: tti.ModuleSize(opts.Target, m)},
		seed:    seed,
	}
	if seed != nil {
		r.neg = seed.neg
		r.keys = seed.keys
	}
	r.opts.Merge.Timings = &core.Timings{}
	if r.opts.Merge.Interner == nil {
		// Per-run table: its lifetime (and memory) matches the module's.
		r.opts.Merge.Interner = encode.NewInterner()
	}

	// Pre-processing: the merger requires φ-free input (§III-A). Sessions
	// demote before diffing, so this is a no-op under a seed.
	passes.DemotePhisModule(m)

	// Fingerprint extraction for all eligible functions, fanned out across
	// the worker pool (each function is independent). A seed supplies them
	// precomputed, parallel to the pool it derived from the same module.
	tFP := time.Now()
	for _, f := range m.Funcs {
		if eligible(f, r.opts) {
			r.pool = append(r.pool, f)
		}
	}
	fpByIdx := make([]*fingerprint.Fingerprint, len(r.pool))
	if seed != nil {
		if len(seed.fps) != len(r.pool) {
			panic("explore: warm seed does not match the derived pool")
		}
		copy(fpByIdx, seed.fps)
	} else {
		par.For(len(r.pool), r.workers, func(i int) {
			fpByIdx[i] = fingerprint.Compute(r.pool[i])
		})
	}
	r.poolFPs = fpByIdx
	r.poolSizes = make([]int32, len(r.pool))
	r.poolLive = make([]bool, len(r.pool))
	r.poolIdx = make(map[*ir.Func]int32, len(r.pool))
	for i, f := range r.pool {
		r.poolIdx[f] = int32(i)
		r.poolSizes[i] = fpByIdx[i].Total
		r.poolLive[i] = true
	}
	r.worklist = append(r.worklist, r.pool...)
	r.rep.Phases.Fingerprint += time.Since(tFP)

	// Initial ranking: build every pool member's top-t list up front, in
	// parallel — signatures and the LSH index first when requested. From
	// here on the cache is maintained incrementally; the unbounded oracle
	// ranks nothing, so it skips the cache (and the index) entirely.
	if t := r.cacheThreshold(); t > 0 {
		tRank := time.Now()
		r.initLSH()
		r.cache = newRankCache(r, t)
		r.rep.Phases.Ranking += time.Since(tRank)
	}
	return r
}

// Run executes the exploration framework on m, committing every profitable
// merge it finds.
func Run(m *ir.Module, opts Options) *Report {
	return runSeeded(m, opts, nil)
}

// runSeeded is Run with an optional warm-session seed (see Session). The
// committed merges are bit-identical with and without a seed: every reused
// artifact is either content-verified (the negative-attempt memo) or
// provably equal to what a cold run would rebuild (fingerprints,
// index state, seeded rankings).
func runSeeded(m *ir.Module, opts Options, seed *warmSeed) *Report {
	r := setupSeeded(m, opts, seed)
	r.setupCaches()

	for len(r.worklist) > 0 {
		f := r.worklist[0]
		r.worklist = r.worklist[1:]
		if !r.live(f) {
			continue // already consumed by an earlier merge
		}

		// Candidates Ranking: top-t most similar pool members (§IV), or
		// every pool member in oracle mode.
		tRank := time.Now()
		var cands []candidate
		if r.cache != nil {
			cands = r.cache.take(f)
		} else {
			for i, g := range r.pool {
				if g != f && r.poolLive[i] && r.samePartition(f, g) {
					cands = append(cands, candidate{fn: g})
				}
			}
		}
		r.rep.Phases.Ranking += time.Since(tRank)

		// Candidate evaluation: speculative merge attempts fan out across
		// the worker pool; the winner is selected deterministically (first
		// profitable rank in greedy mode, best profit in oracle mode).
		win, evaluated := evalCandidates(f, cands, r.opts, r.workers, !r.opts.Oracle, r.neg, r.keys)
		r.rep.CandidatesEvaluated += evaluated
		if win.res == nil {
			continue
		}
		// Verify gate: run the staged IR verifier over the winning merged
		// function before the audit sees it. Recording-only — findings never
		// reject a merge, keeping decisions invariant under the knob.
		if r.opts.Verify != ir.VerifyOff {
			r.verifyFunc(win.res.Merged)
		}
		// Audit gate: statically check the winner before it commits (the
		// originals must still be intact). Deep mode may reject it.
		if r.opts.Audit != AuditOff {
			tAudit := time.Now()
			ok := r.audit(win.res)
			r.rep.Phases.Audit += time.Since(tAudit)
			if !ok {
				discard(win.res, r.opts.Merge.Timings)
				continue
			}
		}
		if r.opts.Oracle {
			r.commit(win.res, win.profit, 0)
		} else {
			r.commit(win.res, win.profit, win.rank+1)
		}
	}

	// Final boundary: verify the whole post-merge module (thunks, rewritten
	// call sites, dropped originals) once, catching any dangling reference
	// or use-list leak a commit left behind.
	if r.opts.Verify != ir.VerifyOff {
		tV := time.Now()
		diags := ir.VerifyModuleLevel(m, r.opts.Verify)
		r.rep.Phases.Verify += time.Since(tV)
		r.rep.VerifiedFuncs += int64(len(m.Definitions()))
		r.rep.VerifyDiags = append(r.rep.VerifyDiags, diags...)
	}

	r.rep.SizeAfter = tti.ModuleSize(r.opts.Target, m)
	tm := r.opts.Merge.Timings
	r.rep.Phases.Linearize = tm.Linearize
	r.rep.Phases.Align = tm.Align
	r.rep.Phases.CodeGen = tm.CodeGen
	r.rep.AlignCells = tm.AlignCells
	r.rep.SeqCacheHits = tm.SeqCacheHits
	r.rep.SeqCacheMisses = tm.SeqCacheMisses
	r.rep.BoundEvals = tm.BoundEvals
	r.rep.CodegenSkips = tm.CodegenSkips
	r.flushRankCounters()
	return r.rep
}

// discard tears down a rejected trial merge. The time counts toward the
// CodeGen phase: dropping a materialized body is the last step of a trial
// merge that did not pay off, and leaving it out would hide it from every
// phase.
func discard(res *core.Result, tm *core.Timings) {
	t0 := time.Now()
	res.Discard()
	if tm != nil {
		tm.AddCodeGen(time.Since(t0))
	}
}

// verifyFunc runs the staged verifier over one function (a winning merged
// body, still detached from the module) and records time and findings.
func (r *runner) verifyFunc(f *ir.Func) {
	tV := time.Now()
	diags := ir.VerifyFuncLevel(f, r.opts.Verify)
	r.rep.Phases.Verify += time.Since(tV)
	r.rep.VerifiedFuncs++
	r.rep.VerifyDiags = append(r.rep.VerifyDiags, diags...)
}

// cacheThreshold returns the ranking depth maintained by the incremental
// cache, or 0 when ranking is disabled (unbounded oracle).
func (r *runner) cacheThreshold() int {
	if r.opts.Oracle {
		return r.opts.OracleCap // 0 disables the cache
	}
	return r.opts.Threshold
}

// commit installs a profitable merge and maintains the exploration state:
// the consumed functions leave the pool, the merged function joins both the
// pool and the work list (the Fig. 7 feedback loop), and the ranking cache
// invalidates exactly the entries the commit touched.
func (r *runner) commit(res *core.Result, profit, rank int) {
	// Gather the memo's invalidation set before committing: Commit rewrites
	// caller call sites and then drains the originals' use lists, so the
	// caller set is only visible now.
	var stale []*ir.Func
	if r.memo != nil {
		stale = staleAfterCommit(res)
	}
	tUp := time.Now()
	removed := res.Commit()
	r.rep.Phases.UpdateCalls += time.Since(tUp)

	r.rep.MergeOps++
	r.rep.FullyRemoved += removed
	if rank > 0 {
		r.rep.RankPositions = append(r.rep.RankPositions, rank)
	}
	r.rep.Records = append(r.rep.Records, MergeRecord{
		Merged: res.Merged.Name(),
		F1:     res.F1.Name(),
		F2:     res.F2.Name(),
		Rank:   rank,
		Profit: profit,
	})

	r.removeFromPool(res.F1)
	r.removeFromPool(res.F2)

	merged := res.Merged
	merged.Hotness = res.F1.Hotness + res.F2.Hotness
	if r.opts.Partition != nil {
		r.opts.Partition[merged] = r.opts.Partition[res.F1]
	}
	var entered *ir.Func
	if eligible(merged, r.opts) {
		tFP := time.Now()
		fp := fingerprint.Compute(merged)
		r.rep.Phases.Fingerprint += time.Since(tFP)
		r.poolIdx[merged] = int32(len(r.pool))
		r.pool = append(r.pool, merged)
		r.poolFPs = append(r.poolFPs, fp)
		r.poolSizes = append(r.poolSizes, fp.Total)
		r.poolLive = append(r.poolLive, true)
		r.worklist = append(r.worklist, merged)
		entered = merged
	}
	if r.cache != nil {
		tRank := time.Now()
		if r.lsh != nil {
			r.lsh.retire(r.poolIdx[res.F1])
			r.lsh.retire(r.poolIdx[res.F2])
			if entered != nil {
				r.lsh.admit(entered)
			}
		}
		r.cache.applyCommit(res.F1, res.F2, entered)
		r.rep.Phases.Ranking += time.Since(tRank)
	}
	r.refreshSeqs(stale)
}

func (r *runner) removeFromPool(f *ir.Func) {
	if i, ok := r.poolIdx[f]; ok && r.poolLive[i] {
		r.poolLive[i] = false
		r.poolFPs[i] = nil
	}
}

// live reports whether f is an unconsumed pool member.
func (r *runner) live(f *ir.Func) bool {
	i, ok := r.poolIdx[f]
	return ok && r.poolLive[i]
}

// fpOf returns a live pool member's fingerprint.
func (r *runner) fpOf(f *ir.Func) *fingerprint.Fingerprint {
	return r.poolFPs[r.poolIdx[f]]
}

// samePartition reports whether two functions may merge under the
// partition constraint. It runs once per ranked pair, so it reads the
// runner's Options in place rather than taking a copy.
func (r *runner) samePartition(a, b *ir.Func) bool {
	part := r.opts.Partition
	return part == nil || part[a] == part[b]
}

// eligible reports whether f participates in exploration.
func eligible(f *ir.Func, opts Options) bool {
	if f.IsDecl() || f.Sig().Variadic {
		return false
	}
	if opts.MaxHotness > 0 && f.Hotness > opts.MaxHotness {
		return false
	}
	return true
}
