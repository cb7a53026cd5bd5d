package explore

// Parallel execution of the exploration pipeline. Three stages fan out
// across a bounded worker pool: fingerprint extraction, the initial ranking
// build (both embarrassingly parallel over a frozen pool) and the per-pop
// speculative evaluation wave implemented here.
//
// Determinism is a hard requirement: Workers=1 and Workers=N must commit
// the same merge sequence and produce the same module. The wave guarantees
// it by construction:
//
//   - Caller-facing cost-model inputs (caller counts, address-taken bits)
//     are snapshotted before the wave, so Profit never observes the
//     transient uses other in-flight attempts add and remove
//     (core.CallerStats).
//   - Shared use lists are mutex-guarded in the IR layer and removal is
//     order-preserving, so a discarded attempt leaves the module exactly as
//     it found it.
//   - The winner is a pure function of the per-rank outcomes: first
//     profitable rank in greedy mode, best (profit, then lowest rank) in
//     oracle mode. Speculative attempts beyond the greedy winner are
//     discarded and excluded from CandidatesEvaluated, matching the
//     sequential early-exit semantics.

import (
	"sync"
	"sync/atomic"

	"fmsa/internal/core"
	"fmsa/internal/ir"
)

// attempt is one speculative merge outcome. rank is -1 when the worker
// found no profitable candidate.
type attempt struct {
	rank   int
	profit int
	res    *core.Result
}

// pruneMinProfit is the bound's pruning threshold, matching the
// `profit <= 0 → discard` rejection below; persisted attempt entries are
// digested under it (attemptDigest).
const pruneMinProfit = 0

// evalCandidates speculatively evaluates f against cands on up to w
// workers and returns the deterministic winner (res == nil when no
// candidate is profitable) plus the number of candidates counted as
// evaluated under sequential semantics.
//
// In greedy mode each worker stops at its first profitable rank and
// publishes it; ranks above the lowest published one are skipped, so the
// wave converges on the same early exit the sequential loop takes. In
// oracle mode every candidate is evaluated and each worker keeps only its
// local best, so at most w merged bodies are alive at once.
//
// neg and keys, when non-nil (warm sessions), implement the
// negative-attempt memo: an attempt whose verified content identities and
// caller snapshots are recorded as unprofitable is skipped without
// aligning or materializing anything. Outcome and profit are pure
// functions of exactly those inputs under pinned options, and an
// unprofitable attempt leaves no observable trace — it commits nothing,
// and the sequential-semantics evaluated count derives from the winner's
// rank, not from which attempts ran — so the skip is invisible in the
// merge records. The memo learns only the failures ranked below the
// winner, the attempts sequential evaluation also runs, and the keys of
// every candidate are registered before the fan-out, so the memo's
// contents — and what a store persists of them — are the same for every
// worker count.
func evalCandidates(f *ir.Func, cands []candidate, opts Options, w int, greedy bool, neg *negMemo, keys *keyTable) (attempt, int) {
	n := len(cands)
	if n == 0 {
		return attempt{rank: -1}, 0
	}
	// Snapshot the cost-model inputs while no attempt is in flight.
	fStats := core.SnapshotCallerStats(f)
	cStats := make([]core.CallerStats, n)
	for i := range cands {
		cStats[i] = core.SnapshotCallerStats(cands[i].fn)
	}
	var fKey funcKey
	var cKeys []funcKey // nil unless the memo applies to f
	if neg != nil {
		if fKey = keys.of(f); fKey.ok {
			cKeys = make([]funcKey, n)
			for i := range cands {
				cKeys[i] = keys.of(cands[i].fn)
			}
		}
	}
	negKeyOf := func(i int) negKey {
		return negKey{
			h1: fKey.hash, h2: cKeys[i].hash,
			s1: fStats, s2: cStats[i],
			l1: f.Linkage, l2: cands[i].fn.Linkage,
		}
	}
	// failed[i] marks rank i as failed or unprofitable in this wave; each
	// rank is claimed by one worker, so the writes never race.
	var failed []bool
	if cKeys != nil {
		failed = make([]bool, n)
	}

	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	var next int64
	best := int64(n) // lowest profitable rank published so far (greedy)
	locals := make([]attempt, w)

	work := func(slot int) {
		local := attempt{rank: -1}
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				break
			}
			if greedy && int64(i) > atomic.LoadInt64(&best) {
				continue // a lower profitable rank already won
			}
			// Negative-attempt memo: skip the attempt when this exact
			// (content, content, stats, stats) class already priced
			// unprofitable in an earlier run of the session.
			memoOK := cKeys != nil && cKeys[i].ok
			if memoOK && neg.known(negKeyOf(i)) {
				continue
			}
			// Pre-codegen bounding (off under the noBound test hook): the
			// per-candidate prune spec carries this pair's caller snapshots,
			// so the bound and the exact model price the same inputs. A
			// pruned pair surfaces as core.ErrHopeless and is handled exactly
			// like an unprofitable one — determinism is unaffected.
			mo := opts.Merge
			if !opts.noBound {
				mo.Prune = &core.PruneSpec{
					Target:    opts.Target,
					S1:        fStats,
					S2:        cStats[i],
					MinProfit: pruneMinProfit,
				}
			}
			res, err := core.Merge(f, cands[i].fn, mo)
			if err != nil {
				if memoOK {
					failed[i] = true
				}
				continue
			}
			profit := res.ProfitWithStats(opts.Target, fStats, cStats[i], opts.Merge.Memo)
			if profit <= 0 {
				discard(res, opts.Merge.Timings)
				if memoOK {
					failed[i] = true
				}
				continue
			}
			if greedy {
				local = attempt{rank: i, profit: profit, res: res}
				// Publish the rank so other workers stop claiming above
				// it, then stop: every rank below i is already claimed.
				for {
					b := atomic.LoadInt64(&best)
					if int64(i) >= b || atomic.CompareAndSwapInt64(&best, b, int64(i)) {
						break
					}
				}
				break
			}
			// Oracle: keep the local best by (profit desc, rank asc).
			// Claims arrive in increasing rank order, so on a tie the
			// held attempt already has the lower rank.
			if local.res == nil || profit > local.profit {
				if local.res != nil {
					discard(local.res, opts.Merge.Timings)
				}
				local = attempt{rank: i, profit: profit, res: res}
			} else {
				discard(res, opts.Merge.Timings)
			}
		}
		locals[slot] = local
	}

	if w == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func(slot int) {
				defer wg.Done()
				work(slot)
			}(g)
		}
		wg.Wait()
	}

	// Deterministic reduction over the per-worker winners.
	win := attempt{rank: -1}
	for _, a := range locals {
		if a.res == nil {
			continue
		}
		better := win.res == nil
		if !better {
			if greedy {
				better = a.rank < win.rank
			} else {
				better = a.profit > win.profit ||
					(a.profit == win.profit && a.rank < win.rank)
			}
		}
		if better {
			if win.res != nil {
				discard(win.res, opts.Merge.Timings)
			}
			win = a
		} else {
			discard(a.res, opts.Merge.Timings)
		}
	}

	evaluated := n
	if greedy && win.res != nil {
		// Sequential semantics: the loop would have stopped at the winner.
		evaluated = win.rank + 1
	}
	for i, bad := range failed[:min(evaluated, len(failed))] {
		if bad {
			neg.insert(negKeyOf(i))
		}
	}
	return win, evaluated
}
