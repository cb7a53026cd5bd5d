package explore

// Sub-quadratic candidate ranking. The exact ranking path ranks every pool
// member against the whole pool (newRankCache builds all top-t lists by
// size-ordered threshold walks, see scanExact — still O(n²) in the worst
// case, when most members are close in size); the LSH path replaces each
// scan with a probe of a banded MinHash index (internal/lsh), so only
// likely-similar bucket-mates are exactly scored. Exact remains the default
// and the recall oracle; LSH is selected with Options.Ranking = RankLSH and
// falls back to the exact scan when the initial pool is smaller than
// DefaultLSHMinPool (index construction only pays off once the quadratic
// scan dominates). Every run that ranks through LSH, cold or a session
// submit, builds its index once at setup over the current pool and drops it
// with the run.
//
// Determinism: signatures use fixed seeds and content-derived type hashes
// (fingerprint.ComputeSignature), index members are pool-insertion indices,
// and probe results are sorted ascending — so LSH rankings, like exact ones,
// are bit-identical for every Workers value. Both paths rank through the
// same order, bounded insert and insertion floor (before, insertBounded and
// insertFloor in cache.go) and are guarded by alignment-avoidance
// prefilters (fingerprint.SimilarityUpperBound against the insertion floor),
// which never change the resulting ranking — a candidate whose cheap upper
// bound is already too low cannot enter the list.

import (
	"errors"
	"sync/atomic"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
	"fmsa/internal/par"
)

// RankingMode selects how candidate rankings are produced.
type RankingMode int

const (
	// RankExact scans the whole pool for every ranking — the paper's
	// mechanism and the recall baseline.
	RankExact RankingMode = iota
	// RankLSH probes a banded MinHash index so only bucket-mates are
	// exactly scored. Below Options.LSHMinPool it falls back to RankExact.
	RankLSH
)

// String names the mode the way the -ranking flags spell it.
func (m RankingMode) String() string {
	if m == RankLSH {
		return "lsh"
	}
	return "exact"
}

// ParseRankingMode parses the -ranking flag values: "" or "exact", or "lsh".
func ParseRankingMode(s string) (RankingMode, error) {
	switch s {
	case "", "exact":
		return RankExact, nil
	case "lsh":
		return RankLSH, nil
	default:
		return RankExact, errors.New(`unknown ranking mode "` + s + `" (want exact or lsh)`)
	}
}

// DefaultLSHMinPool is the initial-pool-size cutoff below which RankLSH
// falls back to the exact scan. Small pools rank faster by scanning than by
// building signatures and an index, and their sparse candidate structure is
// also where bucket probing misses the most moderate-similarity best
// candidates. The value was set against the pool-order exact scan, which
// LSH beat from roughly a thousand pool members up. The size-ordered exact
// scan has since overtaken LSH at that scale: on 483.xalancbmk (3,548
// functions, t=1) LSH ranks at 0.84–0.90× the exact speed while visiting
// 23% of its pairs, at 99.0% top-1 recall (TestLSHRecallTop1 gates the
// recall on that corpus).
// The cutoff stays put regardless. It only applies when a caller asks for
// RankLSH (fmsa -ranking lsh, fmsa-serve sessions opened with it, and the
// serve-delta benchmark), and moving it would change which pools those
// callers rank exactly, and so their merge decisions. Sessions keep no
// index across submits, so no caller needs RankLSH for anything but its
// ranking.
const DefaultLSHMinPool = 512

// useLSH reports whether a run over an n-member initial pool ranks through
// the LSH index: RankLSH was requested and the pool reaches the cutoff.
// Runs and sessions both decide the mode here.
func useLSH(opts Options, n int) bool {
	if opts.Ranking != RankLSH {
		return false
	}
	minPool := opts.lshMinPool
	if minPool == 0 {
		minPool = DefaultLSHMinPool
	}
	return n >= minPool
}

// lshState is the LSH ranking machinery of one exploration run: the banded
// index over pool insertion indices, and the members' signatures, parallel
// to runner.pool (nil once pool[i] is consumed). Fingerprints and pool
// indices come from the runner itself.
type lshState struct {
	idx  *lsh.Index
	sigs []*fingerprint.Signature
}

// newLSHState indexes sigs, the signatures of a freshly set-up pool, under
// ids equal to their pool indices. Cold runs and session submits both build
// their index here, once per run.
func newLSHState(sigs []*fingerprint.Signature, workers int) *lshState {
	return &lshState{idx: lsh.NewFromSignatures(lsh.DefaultParams(), sigs, workers), sigs: sigs}
}

// initLSH builds the LSH state when the run ranks through it and records
// the fallback when RankLSH was requested on a pool below the cutoff.
// Called from setup inside the Ranking-phase timer. A seeded run adopts the
// index its session built over the same pool.
func (r *runner) initLSH() {
	if !useLSH(r.opts, len(r.pool)) {
		if r.opts.Ranking == RankLSH {
			r.rep.RankFallbacks++
		}
		return
	}
	if r.seed != nil {
		r.lsh = r.seed.lsh
		return
	}
	sigs := make([]*fingerprint.Signature, len(r.pool))
	par.For(len(r.pool), r.workers, func(i int) {
		sigs[i] = fingerprint.ComputeSignature(r.pool[i])
	})
	r.lsh = newLSHState(sigs, r.workers)
}

// probe returns the live pool indices sharing a band bucket with pool
// member pi, ascending.
func (ls *lshState) probe(pi int32) []int32 {
	return ls.idx.Probe(ls.sigs[pi], pi)
}

// retire removes consumed pool member pi from the index.
func (ls *lshState) retire(pi int32) {
	ls.idx.Remove(pi)
	ls.sigs[pi] = nil
}

// admit indexes f, the merged function that just joined the pool as its
// last member, so sigs stays parallel to the pool.
func (ls *lshState) admit(f *ir.Func) {
	sig := fingerprint.ComputeSignature(f)
	ls.idx.Insert(int32(len(ls.sigs)), sig)
	ls.sigs = append(ls.sigs, sig)
}

// flushRankCounters folds the atomic scan counters into the report.
func (r *runner) flushRankCounters() {
	r.rep.RankProbes += atomic.LoadInt64(&r.rankProbes)
	r.rep.RankPrefilterSkips += atomic.LoadInt64(&r.rankSkips)
}
