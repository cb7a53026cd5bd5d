package explore

import (
	"slices"
	"sort"
	"sync/atomic"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
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
//     merged function is ineligible, a commit touches no list at all).
//
// Invariant: a list's live entries — stored entries whose function is still
// in the pool — form an exact prefix of the ranking scanTop would build
// over the current pool at unbounded depth (and, in LSH mode, the current
// index — a commit offer applies exactly when the merged function would be
// probed, see offer); complete means they are the entire qualifying set.
// Stale entries never reorder live ones (an entry's sim/size/insertion
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
	// depth is the stored-list depth: 2t, or the warm seed's storage depth
	// when that is deeper (the session also stores at 2t, so they agree).
	depth int
	// lists maps each not-yet-popped pool member to its candidate list.
	// Entries are removed at pop (each function pops at most once) and on
	// consumption by a commit.
	lists map[*ir.Func]*rankList
	// bySize orders the live pool for the exact scan (see scanExact); nil
	// in LSH mode, where scans probe the index instead.
	bySize *sizeIndex
}

// rankList mirrors the session's warmList invariant inside one run: the
// live entries of cands are an exact prefix of the owner's full current
// ranking above MinSimilarity (restricted, in LSH mode, to the probe
// relation), and complete reports that they are the entire qualifying set
// rather than a depth-bounded window. Entries of consumed functions linger
// until purge.
type rankList struct {
	// fp is the owner's fingerprint, cached so the commit-offer hot path
	// (every live list, every commit) needs no lookup.
	fp       *fingerprint.Fingerprint
	cands    []candidate
	complete bool
}

// newRankCache builds the initial candidate list of every pool member, in
// parallel across the run's worker pool. In LSH mode the bucket probes for
// the whole pool run first as one batched, worker-pool-parallel pass.
//
// Under a warm seed, owners with a reconciled session list adopt it without
// scanning, and the remaining scans run at the seed's storage depth with
// each result handed back to the session (onScan) before truncation to t —
// both paths leave the installed lists exactly what a cold build produces.
func newRankCache(r *runner, t int) *rankCache {
	c := &rankCache{r: r, t: t, depth: 2 * t, lists: make(map[*ir.Func]*rankList, len(r.pool))}
	built := make([]*rankList, len(r.pool))
	var scan []int32
	if seed := r.seed; seed != nil {
		if seed.scanDepth > c.depth {
			c.depth = seed.scanDepth
		}
		for i := range r.pool {
			if sl := seed.lists[i]; sl != nil {
				built[i] = &rankList{fp: r.poolFPs[i], cands: sl.cands, complete: sl.complete}
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
		selves := make([]int32, len(scan))
		for j, i := range scan {
			id := ls.id[r.pool[i]]
			selves[j] = id
			sigs[j] = ls.sigs[id]
		}
		probes := ls.idx.ProbeBatch(sigs, selves, r.workers)
		parallelFor(len(scan), r.workers, func(j int) {
			i := scan[j]
			built[i] = c.finishScan(int(i), c.rankIDsDepth(r.pool[i], probes[j], depth))
		})
	} else {
		parallelFor(len(scan), r.workers, func(j int) {
			i := scan[j]
			built[i] = c.finishScan(int(i), c.scanExact(r.pool[i], depth))
		})
	}
	for i, f := range r.pool {
		c.lists[f] = built[i]
	}
	return c
}

// finishScan hands a setup-scan result to the session store (when seeded)
// and installs it at the storage depth. A scan that came back shorter than
// the depth visited every qualifying candidate, so the list is complete.
// The stored session copy and the run's list never alias: onScan converts
// to name-keyed entries.
func (c *rankCache) finishScan(poolIdx int, cands []candidate) *rankList {
	if seed := c.r.seed; seed != nil && seed.onScan != nil {
		seed.onScan(poolIdx, cands)
	}
	return &rankList{fp: c.r.poolFPs[poolIdx], cands: cands, complete: len(cands) < c.depth}
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
// purge); the only per-list work is offering the merged function.
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
	fpg := c.r.fpOf(entered)
	for owner, rl := range c.lists {
		c.offer(owner, rl, entered, fpg)
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
		return c.rankIDs(f, ls.idx.Probe(ls.sigOf(f), ls.id[f]))
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
// insertion floor — MinSimilarity, or the list tail once the list is full —
// no unvisited member can enter, and the walk stops. The result is exactly
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
		floor := r.opts.MinSimilarity
		if len(best) == depth && best[len(best)-1].sim > floor {
			floor = best[len(best)-1].sim
		}
		// A candidate bounded exactly at the floor may still tie its way
		// in (size, then pool index), so only a strictly lower bound stops.
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
		if !samePartition(r.opts, f, g) {
			continue
		}
		probes++
		s := fingerprint.SimilarityFloor(fp, r.poolFPs[pi], floor)
		if s < floor {
			continue
		}
		best = c.insertKeyed(best, candidate{fn: g, sim: s, size: ix.sizes[k]}, pi, depth)
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

// insertKeyed inserts cand (pool index pi) into best — sorted by
// (similarity desc, size desc, pool index asc) — keeping at most depth
// entries. Candidates arrive in size-walk order, not pool order, so an exact
// (similarity, size) tie compares pool indices explicitly.
func (c *rankCache) insertKeyed(best []candidate, cand candidate, pi int32, depth int) []candidate {
	pos := len(best)
	for pos > 0 {
		prev := best[pos-1]
		if prev.sim > cand.sim || (prev.sim == cand.sim && (prev.size > cand.size ||
			(prev.size == cand.size && c.r.poolIdx[prev.fn] < pi))) {
			break
		}
		pos--
	}
	if pos >= depth {
		return best
	}
	best = append(best, candidate{})
	copy(best[pos+1:], best[pos:])
	best[pos] = cand
	if len(best) > depth {
		best = best[:depth]
	}
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

// rankIDs ranks the probed bucket-mates of f. ids arrive sorted ascending —
// pool insertion order — so the bounded insertion produces exactly the
// ordering scanExact would give the same candidate set. The ids come from
// a probe of the live index, which holds exactly the live pool members, so no
// inPool check is needed; fingerprints come from the id-indexed mirror.
func (c *rankCache) rankIDs(f *ir.Func, ids []int32) []candidate {
	return c.rankIDsDepth(f, ids, c.t)
}

// rankIDsDepth is rankIDs at an explicit depth. On warm runs the probed ids
// are session ids in session order, not pool order — they are mapped
// through toPool and re-sorted so the bounded insertion still sees pool
// insertion order, the ranking's deterministic tie-break.
func (c *rankCache) rankIDsDepth(f *ir.Func, ids []int32, depth int) []candidate {
	r := c.r
	ls := r.lsh
	fp := r.fpOf(f)
	best := make([]candidate, 0, min(depth, 16)+1)
	var probes, skips int64
	if ls.toPool != nil {
		pis := make([]int32, 0, len(ids))
		for _, id := range ids {
			pis = append(pis, ls.toPool[id])
		}
		slices.Sort(pis)
		for _, pi := range pis {
			g := r.pool[pi]
			if g == f || !samePartition(r.opts, f, g) {
				continue
			}
			probes++
			best = r.consider(fp, best, g, r.poolFPs[pi], r.poolSizes[pi], depth, &skips)
		}
	} else {
		for _, id := range ids {
			g := r.pool[id]
			if g == f || !samePartition(r.opts, f, g) {
				continue
			}
			probes++
			fpg := ls.fps[id]
			best = r.consider(fp, best, g, fpg, fpg.Total, depth, &skips)
		}
	}
	atomic.AddInt64(&r.rankProbes, probes)
	atomic.AddInt64(&r.rankSkips, skips)
	return best
}

// consider applies the alignment-avoidance prefilters to candidate g — its
// instruction count sg arrives separately so the bound check touches no
// fingerprint memory — and, if it survives, exactly scores it and inserts
// it into best. The prefilters never change the outcome:
// SimilarityUpperBound dominates the exact score, so a candidate filtered
// against MinSimilarity (or against the current t-th entry of a full list)
// could not have entered the list anyway.
func (r *runner) consider(fp *fingerprint.Fingerprint, best []candidate, g *ir.Func, fpg *fingerprint.Fingerprint, sg int32, t int, skips *int64) []candidate {
	floor := r.opts.MinSimilarity
	if len(best) == t && best[len(best)-1].sim > floor {
		floor = best[len(best)-1].sim
	}
	if ub := fingerprint.SimilarityUpperBoundSized(fp, sg); ub < floor {
		*skips++
		return best
	}
	// A score below floor could not enter the list (a full list admits only
	// scores reaching its tail, and insertRanked breaks a tail tie by
	// size), so the floor short-circuit never changes the outcome.
	s := fingerprint.SimilarityFloor(fp, fpg, floor)
	if s < floor {
		return best
	}
	return insertRanked(best, candidate{fn: g, sim: s, size: sg}, t)
}

// offer considers g (which just joined the pool, and therefore carries the
// highest insertion number) as a candidate for owner's list. Because the
// list was an exact prefix before g joined, a bounded sorted insert of g
// keeps it one afterwards — with the same two guards the session's
// warmList.offer applies: an incomplete list cannot grow at its tail (g's
// position relative to unstored candidates is unknown), and truncating a
// full window marks it incomplete. In LSH mode the offer applies only when
// g and owner share a band bucket — precisely the condition under which a
// fresh probe of owner would visit g — so lists keep matching what scanTop
// would rebuild. The upper-bound prefilter never changes the outcome: a
// candidate bounded below the stored tail could only have been a dropped
// tail-append (incomplete) or a truncated insert (full window).
func (c *rankCache) offer(owner *ir.Func, rl *rankList, g *ir.Func, fpg *fingerprint.Fingerprint) {
	r := c.r
	if !samePartition(r.opts, owner, g) {
		return
	}
	if ls := r.lsh; ls != nil && !lsh.Collide(ls.sigOf(owner), ls.sigOf(g), ls.params) {
		return
	}
	atomic.AddInt64(&r.rankProbes, 1)
	fp := rl.fp
	// The insertion floor: a candidate below the stored tail could only
	// have been a dropped tail-append (incomplete) or a truncated insert
	// (full window), so it may be dropped as soon as any bound falls
	// below the tail (insert breaks a tail tie by size, so equality must
	// still go the long way).
	floor := r.opts.MinSimilarity
	if len(rl.cands) > 0 && (len(rl.cands) >= c.depth || !rl.complete) {
		if last := rl.cands[len(rl.cands)-1].sim; last > floor {
			floor = last
		}
	}
	if ub := fingerprint.SimilarityUpperBound(fp, fpg); ub < floor {
		atomic.AddInt64(&r.rankSkips, 1)
		return
	}
	s := fingerprint.SimilarityFloor(fp, fpg, floor)
	if s < floor {
		return
	}
	rl.insert(candidate{fn: g, sim: s, size: fpg.Total}, c.depth)
}

// insert places cand — the latest pool insertion, so equal keys rank it
// last — into the list at its full-key position, bounded by depth. The
// structure mirrors warmList.offer: a tail append on an incomplete list is
// dropped, and a truncation marks the list incomplete.
func (rl *rankList) insert(cand candidate, depth int) {
	pos := len(rl.cands)
	for pos > 0 {
		prev := rl.cands[pos-1]
		if !(prev.sim < cand.sim || (prev.sim == cand.sim && prev.size < cand.size)) {
			break
		}
		pos--
	}
	if pos == len(rl.cands) && !rl.complete {
		return
	}
	if pos >= depth {
		return
	}
	rl.cands = append(rl.cands, candidate{})
	copy(rl.cands[pos+1:], rl.cands[pos:])
	rl.cands[pos] = cand
	if len(rl.cands) > depth {
		rl.cands = rl.cands[:depth]
		rl.complete = false
	}
}

// insertRanked inserts cand into best — sorted by (similarity desc, size
// desc, insertion order asc) — keeping at most t entries. cand must be the
// latest pool insertion among the entries, which the bounded scan and the
// commit offer both guarantee, so placing it after equal keys preserves the
// insertion-order tie-break.
func insertRanked(best []candidate, cand candidate, t int) []candidate {
	pos := len(best)
	for pos > 0 && (best[pos-1].sim < cand.sim ||
		(best[pos-1].sim == cand.sim && best[pos-1].size < cand.size)) {
		pos--
	}
	if pos >= t {
		return best
	}
	best = append(best, candidate{})
	copy(best[pos+1:], best[pos:])
	best[pos] = cand
	if len(best) > t {
		best = best[:t]
	}
	return best
}
