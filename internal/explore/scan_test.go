package explore

import (
	"fmt"
	"math/rand"
	"testing"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// poolOrderScan is the oracle for scanExact: the paper's bounded insertion
// scan over the live pool in insertion order, with no prefilter. Visiting
// in pool order lets insertRanked place a candidate after equal keys, which
// is the (similarity desc, size desc, pool index asc) order.
func poolOrderScan(r *runner, f *ir.Func, depth int) []candidate {
	fp := r.fpOf(f)
	var best []candidate
	for i, g := range r.pool {
		if g == f || !r.poolLive[i] || !samePartition(r.opts, f, g) {
			continue
		}
		s := fingerprint.Similarity(fp, r.poolFPs[i])
		if s < r.opts.MinSimilarity {
			continue
		}
		best = insertRanked(best, candidate{fn: g, sim: s, size: r.poolSizes[i]}, depth)
	}
	return best
}

// sameCands reports the first divergence between two rankings, or "".
func sameCands(got, want []candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d is %s (%.4f, %d), oracle %s (%.4f, %d)", i,
				got[i].fn.Name(), got[i].sim, got[i].size, want[i].fn.Name(), want[i].sim, want[i].size)
		}
	}
	return ""
}

// randomFingerprint draws from a deliberately tiny space — a few opcodes,
// a few types, small counts — so sizes and similarities collide often.
func randomFingerprint(rng *rand.Rand, types []*ir.Type) *fingerprint.Fingerprint {
	fp := &fingerprint.Fingerprint{}
	for _, op := range []ir.Opcode{ir.OpAdd, ir.OpLoad, ir.OpStore, ir.OpCall} {
		if c := int32(rng.Intn(4)); c > 0 {
			fp.OpFreq[op] = c
			fp.Total += c
		}
	}
	if fp.Total == 0 {
		fp.OpFreq[ir.OpRet] = 1
		fp.Total = 1
	}
	for _, ty := range types {
		if c := int32(rng.Intn(3)); c > 0 {
			fp.TypeFreq = append(fp.TypeFreq, fingerprint.TypeCount{Type: ty, Key: ty.String(), Count: c})
		}
	}
	return fp
}

// TestScanExactMatchesPoolOrder property-tests the size-ordered walk
// against the pool-order oracle on random pools full of equal sizes and
// equal similarities, with a partition, consumed (dead) members and merged
// members appended the way commits do, at depth t and 2t.
func TestScanExactMatchesPoolOrder(t *testing.T) {
	types := []*ir.Type{ir.I32(), ir.I64(), ir.PointerTo(ir.I8())}
	sig := ir.FuncOf(ir.Void())
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions()
		opts.MinSimilarity = []float64{0, 1e-9, 0.25}[seed%3]
		if seed%2 == 0 {
			opts.Partition = map[*ir.Func]int{}
		}
		r := &runner{opts: opts, poolIdx: map[*ir.Func]int32{}}
		admit := func() *ir.Func {
			f := ir.NewFunc(fmt.Sprintf("f%d", len(r.pool)), sig)
			fp := randomFingerprint(rng, types)
			if len(r.pool) > 0 && rng.Intn(5) == 0 {
				fp = r.poolFPs[rng.Intn(len(r.pool))] // an exact duplicate, if still live
				if fp == nil {
					fp = randomFingerprint(rng, types)
				}
			}
			if opts.Partition != nil {
				opts.Partition[f] = rng.Intn(3)
			}
			r.poolIdx[f] = int32(len(r.pool))
			r.pool = append(r.pool, f)
			r.poolFPs = append(r.poolFPs, fp)
			r.poolSizes = append(r.poolSizes, fp.Total)
			r.poolLive = append(r.poolLive, true)
			return f
		}
		for i := 0; i < 60+rng.Intn(60); i++ {
			admit()
		}
		tt := 1 + rng.Intn(6)
		c := &rankCache{r: r, t: tt, depth: 2 * tt, bySize: newSizeIndex(r.poolSizes)}
		for round := 0; round < 8; round++ {
			for i, f := range r.pool {
				if !r.poolLive[i] {
					continue
				}
				for _, depth := range []int{tt, 2 * tt} {
					if d := sameCands(c.scanExact(f, depth), poolOrderScan(r, f, depth)); d != "" {
						t.Fatalf("seed %d round %d depth %d owner %s: %s", seed, round, depth, f.Name(), d)
					}
				}
			}
			// A commit: two live members leave the pool, a merged one joins.
			var live []*ir.Func
			for i, f := range r.pool {
				if r.poolLive[i] {
					live = append(live, f)
				}
			}
			f1, f2 := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if f1 == f2 {
				continue
			}
			for _, f := range []*ir.Func{f1, f2} {
				r.poolLive[r.poolIdx[f]] = false
				r.poolFPs[r.poolIdx[f]] = nil
			}
			var entered *ir.Func
			if rng.Intn(4) > 0 {
				entered = admit()
			}
			c.applyCommit(f1, f2, entered)
		}
	}
}

// TestScanExactMatchesPoolOrderCorpus compares every ranking the exact
// path builds on the quick workload corpus (every fourth SPEC-like and
// MiBench-like profile) against the pool-order oracle: each setup list at
// the stored depth 2t, and each in-run rescan at t while commits reshape
// the pool.
func TestScanExactMatchesPoolOrderCorpus(t *testing.T) {
	var profiles []workload.Profile
	for _, suite := range [][]workload.Profile{workload.SPECLike(), workload.MiBenchLike()} {
		for i, p := range suite {
			if i%4 == 0 {
				profiles = append(profiles, p)
			}
		}
	}
	for _, p := range profiles {
		m := workload.Build(p)
		opts := DefaultOptions()
		opts.Threshold = 10
		opts.Workers = 1
		r := setup(m, opts)
		for _, f := range r.pool {
			if d := sameCands(r.cache.lists[f].cands, poolOrderScan(r, f, r.cache.depth)); d != "" {
				t.Fatalf("%s: setup list of %s: %s", p.Name, f.Name(), d)
			}
		}
		r.setupCaches()
		for len(r.worklist) > 0 {
			f := r.worklist[0]
			r.worklist = r.worklist[1:]
			if !r.live(f) {
				continue
			}
			if d := sameCands(r.cache.scanTop(f), poolOrderScan(r, f, opts.Threshold)); d != "" {
				t.Fatalf("%s: rescan of %s after %d merges: %s", p.Name, f.Name(), r.rep.MergeOps, d)
			}
			got := r.cache.take(f)
			win, _ := evalCandidates(f, got, r.opts, r.costs, 1, true, nil, nil)
			if win.res != nil {
				r.commit(win.res, win.profit, win.rank+1)
			}
		}
	}
}
