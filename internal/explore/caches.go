package explore

// The exploration-scoped linearization cache: each pool function's
// linearization+encoding, kept so the O(pool·t) speculative merge attempts
// stop re-linearizing and re-encoding the same functions. Alignment itself
// is not cached: every attempt aligns its pair afresh, as in the paper.
//
// Determinism: the cache is semantically invisible. A hit returns exactly
// what recomputation would — the cache stores the deterministic
// LinearizeOrder output and is invalidated whenever a commit mutates a
// function (the merged inputs and every caller whose call sites Commit
// rewrites). Which attempts hit is scheduling-dependent under Workers > 1,
// so the hit/miss counters may vary across worker counts — the committed
// merges, the report records and the final module never do
// (TestParallelDeterminism runs with the cache on and off).

import (
	"sync"
	"time"

	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/par"
	"fmsa/internal/tti"
)

// setupCaches builds the linearization cache for the initial pool (in
// parallel — each function is independent) and the cost and floor memos.
// Called from Run, not setup, so snapshotRanking never pays for it; the
// encoding wall time lands in the Linearize phase via the shared Timings.
func (r *runner) setupCaches() {
	if !r.opts.noSeqCache {
		start := time.Now()
		r.seqs = &seqCache{
			entries: make(map[*ir.Func]*encode.Encoded, len(r.pool)),
			encode:  r.encodeFunc,
			timings: r.opts.Merge.Timings,
		}
		encs := make([]*encode.Encoded, len(r.pool))
		par.For(len(r.pool), r.workers, func(i int) {
			encs[i] = r.encodeFunc(r.pool[i])
		})
		for i, f := range r.pool {
			r.seqs.entries[f] = encs[i]
		}
		r.opts.Merge.SeqProvider = r.seqs.lookup
		r.opts.Merge.Timings.AddLinearize(time.Since(start))
	}
	// The cost memo serves ProfitWithStatsMemo even when bounding is off
	// (the noBound test hook only disables the pre-codegen prune, see
	// TestBoundDecisionInvariance); invalidation shares the linearization
	// cache's stale set — a rewritten call site changes a caller's size
	// just like it changes its sequence.
	r.costs = tti.NewCostMemo()
	r.floors = core.NewFloorMemo()
}

// encodeFunc linearizes and encodes one function for the cache.
func (r *runner) encodeFunc(f *ir.Func) *encode.Encoded {
	return r.opts.Merge.Interner.Encode(linearize.LinearizeOrder(f, r.opts.Merge.Order))
}

// staleAfterCommit lists every function whose cached linearization the
// pending commit will invalidate: the two merged inputs, plus every caller
// function — Commit rewrites their call instructions to target the merged
// function, which changes their linearized sequences. Must run BEFORE
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

// refreshSeqs applies a commit's invalidations: stale entries are dropped and
// their pooled sequences recycled. Re-encoding is deliberately lazy — the
// next lookup of a dropped function recomputes on miss — because an eager
// refresh is quadratic in practice: a chain-merged function that calls much
// of the pool is a caller invalidated by nearly every subsequent commit, and
// re-encoding its thousands of entries each time costs far more than the
// alignment work the cache exists to feed. Runs serially between evaluation
// waves, so dropping never recycles a sequence an in-flight attempt reads.
func (r *runner) refreshSeqs(stale []*ir.Func) {
	for _, f := range stale {
		if r.seqs != nil {
			if old := r.seqs.drop(f); old != nil {
				linearize.Recycle(old.Seq)
			}
		}
		r.costs.Drop(f) // nil-safe
		r.floors.Drop(f)
	}
}

// seqCache maps live pool functions to their cached linearization+encoding.
// Lookups run concurrently inside evaluation waves and compute on miss; all
// drops happen serially between waves (refreshSeqs), so a cached encoding is
// never recycled while a wave may still read it.
type seqCache struct {
	mu      sync.RWMutex
	entries map[*ir.Func]*encode.Encoded
	encode  func(*ir.Func) *encode.Encoded
	timings *core.Timings
}

// lookup is the core.Options.SeqProvider hook. It never returns nil: a miss
// computes the encoding, installs it and returns it. The computation runs
// outside the lock — linearization+encoding is pure and deterministic, so
// when two workers race on the same function the loser's duplicate is
// recycled and the winner's entry served; the result is identical either
// way. The hit/miss counters live here rather than in core so a computed
// miss is counted exactly once.
func (c *seqCache) lookup(f *ir.Func) *encode.Encoded {
	c.mu.RLock()
	e := c.entries[f]
	c.mu.RUnlock()
	c.timings.CountSeqCache(e != nil)
	if e != nil {
		return e
	}
	enc := c.encode(f)
	c.mu.Lock()
	if won, ok := c.entries[f]; ok {
		c.mu.Unlock()
		linearize.Recycle(enc.Seq)
		return won
	}
	c.entries[f] = enc
	c.mu.Unlock()
	return enc
}

// drop removes and returns f's entry (nil when absent).
func (c *seqCache) drop(f *ir.Func) *encode.Encoded {
	c.mu.Lock()
	e := c.entries[f]
	delete(c.entries, f)
	c.mu.Unlock()
	return e
}
