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
	"runtime"
	"sync"
	"sync/atomic"

	"fmsa/internal/core"
	"fmsa/internal/ir"
	"fmsa/internal/tti"
)

// workerCount resolves the Options.Workers knob.
func workerCount(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n) on up to w goroutines. Work
// is claimed from an atomic counter, so uneven item costs balance
// themselves. fn must be safe for concurrent invocation with distinct i.
func parallelFor(n, w int, fn func(int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// attempt is one speculative merge outcome. rank is -1 when the worker
// found no profitable candidate.
type attempt struct {
	rank   int
	profit int
	res    *core.Result
}

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
// merge records.
func evalCandidates(f *ir.Func, cands []candidate, opts Options, costs *tti.CostMemo, w int, greedy bool, neg *negMemo, keys *keyTable) (attempt, int) {
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
	if neg != nil {
		fKey = keys.of(f)
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
			var nk negKey
			memoOK := false
			if neg != nil && fKey.ok {
				if cKey := keys.of(cands[i].fn); cKey.ok {
					nk = negKey{
						h1: fKey.hash, h2: cKey.hash,
						s1: fStats, s2: cStats[i],
						l1: f.Linkage, l2: cands[i].fn.Linkage,
					}
					memoOK = true
					if neg.known(nk) {
						continue
					}
				}
			}
			// Pre-codegen bounding (Options.NoBound): the per-candidate
			// prune spec carries this pair's caller snapshots, so the bound
			// and the exact model price the same inputs. A pruned pair
			// surfaces as core.ErrHopeless and is handled exactly like an
			// unprofitable one — determinism is unaffected.
			mo := opts.Merge
			if !opts.NoBound {
				mo.Prune = &core.PruneSpec{
					Target: opts.Target,
					S1:     fStats,
					S2:     cStats[i],
					Costs:  costs,
				}
			}
			res, err := core.Merge(f, cands[i].fn, mo)
			if err != nil {
				if memoOK {
					neg.insert(nk)
				}
				continue
			}
			profit := res.ProfitWithStatsMemo(opts.Target, fStats, cStats[i], costs)
			if profit <= 0 {
				discard(res, opts.Merge.Timings)
				if memoOK {
					neg.insert(nk)
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
	return win, evaluated
}
