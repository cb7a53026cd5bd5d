package explore

// Sub-quadratic candidate ranking. The exact ranking path ranks every pool
// member against the whole pool (newRankCache builds all top-t lists by
// size-ordered threshold walks, see scanExact — still O(n²) in the worst
// case, when most members are close in size); the LSH path replaces each
// scan with a probe of a banded MinHash index (internal/lsh), so only
// likely-similar bucket-mates are exactly scored. Exact remains the default
// and the recall oracle; LSH is selected with Options.Ranking = RankLSH and
// falls back to the exact scan when the initial pool is smaller than
// Options.LSHMinPool (index construction only pays off once the quadratic
// scan dominates).
//
// Determinism: signatures use fixed seeds and content-derived type hashes
// (fingerprint.ComputeSignature), index members are pool-insertion indices,
// and probe results are sorted ascending — so LSH rankings, like exact ones,
// are bit-identical for every Workers value. Both paths are additionally
// guarded by alignment-avoidance prefilters (fingerprint.SimilarityUpperBound
// against MinSimilarity and the current t-th candidate), which never change
// the resulting ranking — a candidate whose cheap upper bound is already too
// low cannot enter the list.

import (
	"errors"
	"sync/atomic"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
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
// RankLSH, and the callers that do (fmsa-serve sessions and the similarity
// database) need LSH for its stored signatures and incremental index, not
// for ranking speed. Moving it would change which pools those callers
// rank exactly, and so their merge decisions.
const DefaultLSHMinPool = 512

// lshState is the LSH ranking machinery of one exploration run: the banded
// index plus the signature and id bookkeeping that keeps it consistent as
// commits retire pool functions and add merged ones.
type lshState struct {
	params lsh.Params
	idx    *lsh.Index
	// sigs and fps are indexed by member id. On a cold run ids are pool
	// insertion indices, so both are parallel to runner.pool (nil after
	// pool[i] is consumed); on a warm run ids are the session's stable
	// member ids. fps mirrors runner.poolFPs so the probe-scoring inner loop
	// indexes a slice instead of hashing a map key per candidate.
	sigs []*fingerprint.Signature
	fps  []*fingerprint.Fingerprint
	// id maps live pool members to their index id.
	id map[*ir.Func]int32
	// toPool, non-nil only on warm runs, maps a member id to its pool
	// insertion index; ranking scans restore pool order through it.
	toPool []int32
	// journal, non-nil only on warm runs, records the run's index churn —
	// retires keep their sigs/fps slots alive — so the session can roll the
	// shared index back to its pre-run state after the run.
	journal *lshJournal
}

// lshJournal logs one warm run's index mutations in order.
type lshJournal struct {
	admitted, retired []int32
}

// initLSH builds the LSH state when the run requests it and the pool is
// large enough; otherwise it records the fallback and leaves r.lsh nil.
// Called from setup inside the Ranking-phase timer. Seeded runs adopt the
// session's pre-built state (or its pre-decided fallback) as is.
func (r *runner) initLSH() {
	if r.seed != nil {
		r.lsh = r.seed.lsh
		if r.seed.fallback {
			r.rep.RankFallbacks++
		}
		return
	}
	if r.opts.Ranking != RankLSH {
		return
	}
	minPool := r.opts.LSHMinPool
	if minPool == 0 {
		minPool = DefaultLSHMinPool
	}
	if len(r.pool) < minPool {
		r.rep.RankFallbacks++
		return
	}
	ls := &lshState{
		params: r.opts.LSH,
		sigs:   make([]*fingerprint.Signature, len(r.pool)),
		fps:    make([]*fingerprint.Fingerprint, len(r.pool)),
		id:     make(map[*ir.Func]int32, len(r.pool)),
	}
	parallelFor(len(r.pool), r.workers, func(i int) {
		ls.sigs[i] = fingerprint.ComputeSignature(r.pool[i])
	})
	ls.idx = lsh.NewSized(ls.params, len(r.pool))
	ls.params = ls.idx.Params() // normalized
	for i, f := range r.pool {
		ls.fps[i] = r.poolFPs[i]
		ls.id[f] = int32(i)
		ls.idx.Insert(int32(i), ls.sigs[i])
	}
	r.lsh = ls
}

// sigOf returns a live pool member's signature.
func (ls *lshState) sigOf(f *ir.Func) *fingerprint.Signature {
	return ls.sigs[ls.id[f]]
}

// retire removes a consumed function from the index. Warm runs journal the
// id and keep its sigs/fps slots alive so the session can re-insert the
// exact signature when rolling the shared index back.
func (ls *lshState) retire(f *ir.Func) {
	id, ok := ls.id[f]
	if !ok {
		return
	}
	ls.idx.Remove(id)
	delete(ls.id, f)
	if ls.journal != nil {
		ls.journal.retired = append(ls.journal.retired, id)
		return
	}
	ls.sigs[id] = nil
	ls.fps[id] = nil
}

// admit indexes the merged function that just joined the pool at position
// poolIdx == len(pool)-1. The member id is the next sigs slot: on a cold
// run that equals poolIdx (sigs stay parallel to the pool), on a warm run
// it is the next session id.
func (ls *lshState) admit(f *ir.Func, fp *fingerprint.Fingerprint, poolIdx int32) {
	sig := fingerprint.ComputeSignature(f)
	id := int32(len(ls.sigs))
	ls.sigs = append(ls.sigs, sig)
	ls.fps = append(ls.fps, fp)
	if ls.toPool != nil {
		ls.toPool = append(ls.toPool, poolIdx)
	}
	ls.id[f] = id
	ls.idx.Insert(id, sig)
	if ls.journal != nil {
		ls.journal.admitted = append(ls.journal.admitted, id)
	}
}

// flushRankCounters folds the atomic scan counters into the report.
func (r *runner) flushRankCounters() {
	r.rep.RankProbes += atomic.LoadInt64(&r.rankProbes)
	r.rep.RankPrefilterSkips += atomic.LoadInt64(&r.rankSkips)
}
