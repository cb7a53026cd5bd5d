package explore

import (
	"slices"
	"sort"
	"sync/atomic"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/par"
)

// rankCache maintains, for every function awaiting its worklist pop, a
// candidate list whose leading entries are exactly what a full scan would
// produce — without performing that scan on every pop. The sequential
// framework rescanned the whole pool per pop (O(n) each, O(n²) per run);
// the cache builds all lists once, in parallel, at depth 2t (twice the
// threshold), and afterwards touches only what a commit actually changes:
//
//   - the two consumed functions' own lists are dropped (they will never be
//     popped again); entries NAMING a consumed function simply go stale in
//     place and are purged when their list is next read — no per-commit
//     walk over every list;
//   - every list receives the merged function as a candidate offer, a
//     single similarity computation plus a bounded sorted insert (when the
//     merged function is ineligible, a commit touches no list at all; in
//     LSH mode only the lists of its bucket-mates, found by one probe).
//
// Invariant: a list's live entries — stored entries whose function is still
// in the pool — form an exact prefix of the ranking scanTop would build
// over the current pool at unbounded depth (and, in LSH mode, the current
// index — a commit offer applies exactly when the merged function would be
// probed, see offer); complete means they are the entire qualifying set.
// Stale entries never reorder live ones (an entry's sim/size/pool-index
// keys are fixed), so filtering preserves the prefix. A pop whose purged
// list retains at least t entries (or is complete) reads the true top-t
// straight off the prefix; only a list that consumptions shrank below t
// while candidates beyond the stored window may exist falls back to a
// rescan. The depth-2t window makes that fallback rare: it takes t+1
// consumed members of one list before its owner pops. The ordering
// (similarity desc, size desc, pool-insertion order asc) is identical to
// the sequential bounded-insertion scan, so exploration results are
// bit-for-bit unchanged — a deeper scan only widens the insertion bound,
// and every take returns the same top-t the sequential rescan would.
type rankCache struct {
	r *runner
	t int
	// depth is the stored-list depth, 2t; sessions store their lists at the
	// same depth.
	depth int
	// lists maps each not-yet-popped pool member to its candidate list.
	// Entries are removed at pop (each function pops at most once) and on
	// consumption by a commit.
	lists map[*ir.Func]*rankList
	// bySize orders the live pool for the exact scan (see scanExact); nil
	// in LSH mode, where scans probe the index instead.
	bySize *sizeIndex
}

// rankList is one owner's candidate list: the live entries of cands are an
// exact prefix of the owner's full current ranking above MinSimilarity
// (restricted, in LSH mode, to the probe relation), and complete reports
// that they are the entire qualifying set rather than a depth-bounded
// window. Entries of consumed functions linger until purge. A session
// reconciles its stored lists into the same structure to seed a run.
type rankList struct {
	// fp is the owner's fingerprint, cached so the commit-offer hot path
	// (every live list, every commit) needs no lookup.
	fp       *fingerprint.Fingerprint
	cands    []candidate
	complete bool
}

// before reports whether a ranks strictly before b in the ranking order
// every candidate list keeps: similarity desc, size desc, pool index asc.
func before(a, b candidate) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	if a.size != b.size {
		return a.size > b.size
	}
	return a.pi < b.pi
}

// insertBounded places cand at its position in cands — sorted by before,
// an exact prefix of its owner's ranking, or all of it when complete —
// keeping at most depth entries. Scans, commit offers and session
// reconciliation all insert here. Two guards keep the prefix exact:
//
//   - an incomplete list cannot grow at its tail: a candidate ranking after
//     every stored entry may also rank after unstored ones, so its true
//     position is unknown and it is dropped (it cannot enter the top-t a
//     list serves, which reads at least t stored entries or rescans);
//   - a list that reaches depth is marked incomplete, truncated or not: a
//     real candidate fell off the window, or the next one to rank after
//     the tail will. finishScan's rule, complete = len < depth, is the same.
//
// A scan builds its list from nothing, so it passes complete and ignores
// the returned flag; finishScan decides completeness from the length.
func insertBounded(cands []candidate, cand candidate, depth int, complete bool) ([]candidate, bool) {
	pos := len(cands)
	for pos > 0 && before(cand, cands[pos-1]) {
		pos--
	}
	if pos >= depth || (pos == len(cands) && !complete) {
		return cands, complete
	}
	cands = append(cands, candidate{})
	copy(cands[pos+1:], cands[pos:])
	cands[pos] = cand
	if len(cands) >= depth {
		cands = cands[:depth]
		complete = false
	}
	return cands, complete
}

// insertFloor is the lowest similarity with which a candidate can still
// enter cands under insertBounded: minSim, raised to the tail's similarity
// once the list is full (a lower candidate would be cut off at once) or
// incomplete (it would be a dropped tail append). A candidate scoring
// exactly the floor may still tie its way in by size or pool index, so
// callers drop only what bounds or scores strictly below it. Scans, probes,
// commit offers and reconciliation offers all prefilter against it, each
// with its own upper bound on the similarity.
func insertFloor(cands []candidate, depth int, complete bool, minSim float64) float64 {
	if n := len(cands); n > 0 && (n >= depth || !complete) && cands[n-1].sim > minSim {
		return cands[n-1].sim
	}
	return minSim
}

// newRankCache builds the initial candidate list of every pool member, in
// parallel across the run's worker pool. In LSH mode the bucket probes for
// the whole pool run first as one batched, worker-pool-parallel pass.
//
// Under a warm seed, owners with a reconciled session list adopt it without
// scanning, and the remaining scans run as in a cold build, each result
// handed back to the session (onScan) before truncation to t — both paths
// leave the installed lists exactly what a cold build produces.
func newRankCache(r *runner, t int) *rankCache {
	c := &rankCache{r: r, t: t, depth: 2 * t, lists: make(map[*ir.Func]*rankList, len(r.pool))}
	built := make([]*rankList, len(r.pool))
	var scan []int32
	if seed := r.seed; seed != nil {
		for i := range r.pool {
			if rl := seed.lists[i]; rl != nil {
				built[i] = rl
			} else {
				scan = append(scan, int32(i))
			}
		}
	} else {
		scan = make([]int32, len(r.pool))
		for i := range scan {
			scan[i] = int32(i)
		}
	}
	depth := c.depth
	if r.lsh == nil {
		c.bySize = newSizeIndex(r.poolSizes)
	}
	if ls := r.lsh; ls != nil {
		sigs := make([]*fingerprint.Signature, len(scan))
		for j, i := range scan {
			sigs[j] = ls.sigs[i]
		}
		probes := ls.idx.ProbeBatch(sigs, scan, r.workers)
		par.For(len(scan), r.workers, func(j int) {
			i := scan[j]
			built[i] = c.finishScan(int(i), c.rankIDs(r.pool[i], probes[j], depth))
		})
	} else {
		par.For(len(scan), r.workers, func(j int) {
			i := scan[j]
			built[i] = c.finishScan(int(i), c.scanExact(r.pool[i], depth))
		})
	}
	for i, f := range r.pool {
		c.lists[f] = built[i]
	}
	return c
}

// finishScan installs a setup-scan result at the storage depth and hands it
// to the session store (when seeded). A scan that came back shorter than
// the depth visited every qualifying candidate, so the list is complete.
// The stored session copy and the run's list never alias: onScan converts
// to name-keyed entries.
func (c *rankCache) finishScan(poolIdx int, cands []candidate) *rankList {
	rl := &rankList{fp: c.r.poolFPs[poolIdx], cands: cands, complete: len(cands) < c.depth}
	if seed := c.r.seed; seed != nil && seed.onScan != nil {
		seed.onScan(poolIdx, rl)
	}
	return rl
}

// take returns f's candidate ranking — the first t live entries of its
// purged stored prefix — and drops it from the cache; a worklist entry is
// popped at most once, so the list has no further readers. Only when
// consumptions shrank the live prefix below t while unstored candidates
// may exist beyond it (incomplete) is the ranking rebuilt by a scan.
func (c *rankCache) take(f *ir.Func) []candidate {
	rl := c.lists[f]
	delete(c.lists, f)
	if rl != nil {
		rl.purge(c.r)
		if rl.complete || len(rl.cands) >= c.t {
			if len(rl.cands) > c.t {
				return rl.cands[:c.t]
			}
			return rl.cands
		}
	}
	return c.scanTop(f)
}

// applyCommit updates pending rankings after f1 and f2 left the pool (and
// the index) and entered (nil when the merged function is ineligible)
// joined it. Entries naming the consumed functions go stale in place (see
// purge); the only per-list work is offering the merged function. In LSH
// mode that offer goes only to the members one probe of entered's
// signature returns: bucket sharing is symmetric, so they are exactly the
// owners whose own probe would visit entered (see offer).
func (c *rankCache) applyCommit(f1, f2, entered *ir.Func) {
	delete(c.lists, f1)
	delete(c.lists, f2)
	if ix := c.bySize; ix != nil {
		for _, f := range [...]*ir.Func{f1, f2} {
			pi := c.r.poolIdx[f]
			ix.remove(c.r.poolSizes[pi], pi)
		}
		if entered != nil {
			pi := c.r.poolIdx[entered]
			ix.insert(c.r.poolSizes[pi], pi)
		}
	}
	if entered == nil {
		return
	}
	gi := c.r.poolIdx[entered]
	if ls := c.r.lsh; ls != nil {
		for _, pi := range ls.probe(gi) {
			owner := c.r.pool[pi]
			if rl := c.lists[owner]; rl != nil {
				c.offer(owner, rl, gi)
			}
		}
		return
	}
	for owner, rl := range c.lists {
		c.offer(owner, rl, gi)
	}
	// The merged function's own ranking is built lazily at its pop: take
	// finds no cache entry and falls back to a full scan.
}

// purge drops entries whose function left the pool, in one walk, preserving
// order and completeness: a complete list stays the complete set of
// survivors, a window stays an exact (shorter) prefix. Staleness cannot
// reorder survivors — entry keys are fixed — so purging commutes with the
// inserts that happened since. The common case — nothing stale — writes
// nothing.
func (rl *rankList) purge(r *runner) {
	w := 0
	for i := range rl.cands {
		if !r.live(rl.cands[i].fn) {
			continue
		}
		if w != i {
			rl.cands[w] = rl.cands[i]
		}
		w++
	}
	rl.cands = rl.cands[:w]
}

// scanTop selects the top-t candidates for f from the current pool: a
// size-ordered threshold walk in exact mode, a bucket probe of the MinHash
// index in LSH mode.
func (c *rankCache) scanTop(f *ir.Func) []candidate {
	if ls := c.r.lsh; ls != nil {
		return c.rankIDs(f, ls.probe(c.r.poolIdx[f]), c.t)
	}
	return c.scanExact(f, c.t)
}

// scanExact selects the top-depth live pool members most similar to f —
// ranked by (similarity desc, size desc, pool index asc) among those
// scoring at least MinSimilarity — without visiting the whole pool. The
// size-ratio bound SimilarityUpperBoundSized(fp, s) peaks at s = f's size
// and falls monotonically on both sides of it, so the walk starts at f's
// size in the size-sorted index and advances whichever frontier (smaller or
// larger members) has the higher bound. Once the higher bound is below the
// insertion floor (insertFloor) no unvisited member can enter, and the walk
// stops. The result is exactly
// the pool-order bounded scan's: both compute the top-depth of the same set
// under the same total key; only the visiting order (and so how fast the
// floor rises) differs. Safe for concurrent use against a frozen pool.
func (c *rankCache) scanExact(f *ir.Func, depth int) []candidate {
	r := c.r
	fp := r.fpOf(f)
	ix := c.bySize
	n := len(ix.sizes)
	hi, _ := slices.BinarySearch(ix.sizes, fp.Total)
	lo := hi - 1
	best := make([]candidate, 0, min(depth, 16)+1)
	var probes int64
	self := false
	for lo >= 0 || hi < n {
		floor := insertFloor(best, depth, true, r.opts.MinSimilarity)
		k := -1
		ubLo, ubHi := -1.0, -1.0
		if lo >= 0 {
			ubLo = fingerprint.SimilarityUpperBoundSized(fp, ix.sizes[lo])
		}
		if hi < n {
			ubHi = fingerprint.SimilarityUpperBoundSized(fp, ix.sizes[hi])
		}
		if hi < n && ubHi >= ubLo {
			if ubHi >= floor {
				k = hi
				hi++
			}
		} else if ubLo >= floor {
			k = lo
			lo--
		}
		if k < 0 {
			break
		}
		pi := ix.idx[k]
		g := r.pool[pi]
		if g == f {
			self = true
			continue
		}
		if !r.samePartition(f, g) {
			continue
		}
		probes++
		s := fingerprint.SimilarityFloor(fp, r.poolFPs[pi], floor)
		if s < floor {
			continue
		}
		best, _ = insertBounded(best, candidate{fn: g, sim: s, size: ix.sizes[k], pi: pi}, depth, true)
	}
	// The members the bound dismissed without a visit count as probes and
	// prefilter skips, as they did when a scan visited every pool member.
	skips := int64(lo + 1 + n - hi)
	if !self {
		skips--
	}
	atomic.AddInt64(&r.rankProbes, probes+skips)
	atomic.AddInt64(&r.rankSkips, skips)
	return best
}

// sizeIndex lists the live pool members sorted by (instruction count asc,
// pool index asc) as two parallel slices, so scanExact can start at a size
// by binary search and walk outward. Built once per run; commits keep it
// current by removing the consumed pair and binary-inserting the merged
// function.
type sizeIndex struct {
	sizes []int32
	idx   []int32
}

// newSizeIndex indexes every member of a freshly set-up (all-live) pool.
func newSizeIndex(poolSizes []int32) *sizeIndex {
	ix := &sizeIndex{sizes: make([]int32, len(poolSizes)), idx: make([]int32, len(poolSizes))}
	for i := range ix.idx {
		ix.idx[i] = int32(i)
	}
	slices.SortFunc(ix.idx, func(a, b int32) int {
		if poolSizes[a] != poolSizes[b] {
			return int(poolSizes[a] - poolSizes[b])
		}
		return int(a - b)
	})
	for i, pi := range ix.idx {
		ix.sizes[i] = poolSizes[pi]
	}
	return ix
}

// search returns the position of (size, pi) in key order.
func (ix *sizeIndex) search(size, pi int32) int {
	return sort.Search(len(ix.sizes), func(m int) bool {
		return ix.sizes[m] > size || (ix.sizes[m] == size && ix.idx[m] >= pi)
	})
}

// insert adds pool member pi of the given size.
func (ix *sizeIndex) insert(size, pi int32) {
	k := ix.search(size, pi)
	ix.sizes = slices.Insert(ix.sizes, k, size)
	ix.idx = slices.Insert(ix.idx, k, pi)
}

// remove drops pool member pi (of the given size) if indexed.
func (ix *sizeIndex) remove(size, pi int32) {
	k := ix.search(size, pi)
	if k < len(ix.idx) && ix.idx[k] == pi {
		ix.sizes = slices.Delete(ix.sizes, k, k+1)
		ix.idx = slices.Delete(ix.idx, k, k+1)
	}
}

// rankIDs ranks the probed bucket-mates of f at the given depth. ids are
// pool indices from a probe of the live index, which holds exactly the live
// pool members, so no liveness check is needed. The size-ratio bound
// prefilters each mate against the insertion floor; it dominates the exact
// score, so a mate it dismisses could not have entered the list anyway.
func (c *rankCache) rankIDs(f *ir.Func, ids []int32, depth int) []candidate {
	r := c.r
	fp := r.fpOf(f)
	best := make([]candidate, 0, min(depth, 16)+1)
	var probes, skips int64
	for _, pi := range ids {
		g := r.pool[pi]
		if g == f || !r.samePartition(f, g) {
			continue
		}
		probes++
		floor := insertFloor(best, depth, true, r.opts.MinSimilarity)
		sg := r.poolSizes[pi]
		if fingerprint.SimilarityUpperBoundSized(fp, sg) < floor {
			skips++
			continue
		}
		s := fingerprint.SimilarityFloor(fp, r.poolFPs[pi], floor)
		if s < floor {
			continue
		}
		best, _ = insertBounded(best, candidate{fn: g, sim: s, size: sg, pi: pi}, depth, true)
	}
	atomic.AddInt64(&r.rankProbes, probes)
	atomic.AddInt64(&r.rankSkips, skips)
	return best
}

// offer considers pool member gi, which just joined the pool, as a
// candidate for owner's list. In LSH mode applyCommit offers gi only to the
// owners that share a band bucket with it — precisely the condition under
// which a fresh probe of owner would visit it — so lists keep matching what
// scanTop would rebuild.
func (c *rankCache) offer(owner *ir.Func, rl *rankList, gi int32) {
	r := c.r
	g := r.pool[gi]
	if !r.samePartition(owner, g) {
		return
	}
	atomic.AddInt64(&r.rankProbes, 1)
	if rl.offer(g, gi, r.poolFPs[gi], c.depth, r.opts.MinSimilarity) {
		atomic.AddInt64(&r.rankSkips, 1)
	}
}

// offer scores g — pool index gi, fingerprint fpg — against the list's
// owner and inserts it when it reaches the insertion floor; skipped reports
// that the size-ratio bound alone dismissed it. Commit offers and session
// reconciliation both add members to an existing list this way. Because
// the list was an exact prefix before g joined the pool, a bounded insert
// keeps it one afterwards (see insertBounded's guards), and the bound
// dominates the exact score, so the prefilter never changes the outcome.
func (rl *rankList) offer(g *ir.Func, gi int32, fpg *fingerprint.Fingerprint, depth int, minSim float64) (skipped bool) {
	floor := insertFloor(rl.cands, depth, rl.complete, minSim)
	if fingerprint.SimilarityUpperBound(rl.fp, fpg) < floor {
		return true
	}
	if s := fingerprint.SimilarityFloor(rl.fp, fpg, floor); s >= floor {
		rl.cands, rl.complete = insertBounded(rl.cands, candidate{fn: g, sim: s, size: fpg.Total, pi: gi}, depth, rl.complete)
	}
	return false
}
