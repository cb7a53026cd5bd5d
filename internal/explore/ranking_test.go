package explore

import (
	"fmt"
	"reflect"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// recallProfile mirrors the clone mix of the suite's large templated C++
// corpora (xalancbmk/dealII) at a size large enough that the
// DefaultLSHMinPool cutoff does not force a fallback.
func recallProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: "recall", NumFuncs: 1600, AvgSize: 30, MaxSize: 120,
		Identical: 0.03, ConstVar: 0.02, TypeVar: 0.042, CFGVar: 0.028,
		Partial: 0.028, Reorder: 0.01, InternalFrac: 0.7, Seed: seed,
	}
}

// rankCand is one ranked candidate in a snapshotRanking entry.
type rankCand struct {
	// Name is the candidate function's name.
	Name string
	// Sim is the exact fingerprint similarity score.
	Sim float64
	// Size is the candidate's instruction count (the tie-break key).
	Size int32
}

// rankEntry records one pool function's initial top-t candidate list.
type rankEntry struct {
	// Func is the pool function's name.
	Func string
	// Cands is its candidate list, best first.
	Cands []rankCand
}

// snapshotRanking builds only the initial candidate rankings of an
// exploration run — no merges are attempted — and returns one entry per pool
// member in pool order plus a report carrying the Ranking-phase wall time
// and the probe counters, so ranking cost and LSH recall can be measured
// against the exact baseline on identical pools. The module is φ-demoted in
// place (the same pre-processing Run applies) but not otherwise modified.
// The unbounded oracle maintains no ranking; its snapshot is empty.
func snapshotRanking(m *ir.Module, opts Options) ([]rankEntry, *Report) {
	r := setup(m, opts)
	if r.cache == nil {
		r.flushRankCounters()
		return nil, r.rep
	}
	entries := make([]rankEntry, 0, len(r.pool))
	for _, f := range r.pool {
		cands := r.cache.take(f)
		e := rankEntry{Func: f.Name(), Cands: make([]rankCand, 0, len(cands))}
		for _, c := range cands {
			e.Cands = append(e.Cands, rankCand{Name: c.fn.Name(), Sim: c.sim, Size: c.size})
		}
		entries = append(entries, e)
	}
	r.flushRankCounters()
	return entries, r.rep
}

// TestLSHRecallTop1 is the recall property of the LSH ranking path: at
// default parameters, for at least 95% of pool functions whose exact scan
// finds a best candidate, the LSH probe either ranks that same candidate or
// one at least as similar. Snapshots do not merge, so both modes run against
// the identical pool of the same module. The inputs are two seeds of the
// synthetic recall corpus and the suite's largest corpus, 483.xalancbmk; all
// must be large enough that the index engages (zero fallbacks), so the
// recall floor is never checked against the exact scan itself.
func TestLSHRecallTop1(t *testing.T) {
	profiles := []workload.Profile{recallProfile(3), recallProfile(17)}
	for _, p := range workload.SPECLike() {
		if p.Name == "483.xalancbmk" {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) != 3 {
		t.Fatal("483.xalancbmk missing from the SPEC-like suite")
	}
	for _, p := range profiles {
		name := fmt.Sprintf("%s seed %d", p.Name, p.Seed)
		m := workload.Build(p)

		exactOpts := DefaultOptions()
		exactOpts.Threshold = 1
		exact, _ := snapshotRanking(m, exactOpts)

		lshOpts := exactOpts
		lshOpts.Ranking = RankLSH
		lshRank, rep := snapshotRanking(m, lshOpts)

		if rep.RankFallbacks != 0 {
			t.Fatalf("%s: LSH fell back on a %d-entry pool", name, len(exact))
		}
		if len(exact) != len(lshRank) {
			t.Fatalf("%s: pool sizes diverge: exact %d, lsh %d", name, len(exact), len(lshRank))
		}

		eligible, hits := 0, 0
		for i, e := range exact {
			if len(e.Cands) == 0 {
				continue
			}
			eligible++
			l := lshRank[i]
			if l.Func != e.Func {
				t.Fatalf("%s entry %d: pool order diverges: %s vs %s", name, i, e.Func, l.Func)
			}
			top := e.Cands[0]
			hit := false
			for _, c := range l.Cands {
				if c.Name == top.Name {
					hit = true
					break
				}
			}
			// Tie-robust: a different candidate at least as similar also
			// preserves the merge opportunity.
			if !hit && len(l.Cands) > 0 && l.Cands[0].Sim >= top.Sim {
				hit = true
			}
			if hit {
				hits++
			}
		}
		if eligible == 0 {
			t.Fatalf("%s: no pool function had an exact candidate", name)
		}
		recall := float64(hits) / float64(eligible)
		t.Logf("%s: top-1 recall %d/%d = %.3f (probes %d, skips %d)",
			name, hits, eligible, recall, rep.RankProbes, rep.RankPrefilterSkips)
		if recall < 0.95 {
			t.Errorf("%s: LSH top-1 recall %.3f < 0.95", name, recall)
		}
	}
}

// TestLSHFallbackBelowCutoff: on a pool smaller than DefaultLSHMinPool the
// LSH mode must record one fallback and reproduce the exact-mode run bit for
// bit.
func TestLSHFallbackBelowCutoff(t *testing.T) {
	opts := DefaultOptions()
	opts.Threshold = 5
	exactRep, exactMod := exploreWith(t, opts, 1, 19)

	opts.Ranking = RankLSH // demo pool (~30 funcs) < DefaultLSHMinPool
	lshRep, lshMod := exploreWith(t, opts, 1, 19)

	if lshRep.RankFallbacks != 1 {
		t.Errorf("RankFallbacks = %d, want 1", lshRep.RankFallbacks)
	}
	if !reflect.DeepEqual(exactRep.Records, lshRep.Records) {
		t.Errorf("fallback run diverges from exact:\nexact: %+v\nlsh: %+v",
			exactRep.Records, lshRep.Records)
	}
	if exactMod != lshMod {
		t.Error("fallback module text diverges from exact mode")
	}
}

// BenchmarkRankExact and BenchmarkRankLSH measure snapshotRanking on the
// recall corpus; the rank-ns/op metric isolates the Ranking-phase wall time
// (index construction + probing vs the quadratic scan) from the shared
// setup cost.
func BenchmarkRankExact(b *testing.B) {
	benchmarkRank(b, RankExact)
}

func BenchmarkRankLSH(b *testing.B) {
	benchmarkRank(b, RankLSH)
}

func benchmarkRank(b *testing.B, mode RankingMode) {
	b.ReportAllocs()
	m := workload.Build(recallProfile(3))
	opts := DefaultOptions()
	opts.Threshold = 1
	opts.Ranking = mode
	opts.Workers = 1
	var rankNS int64
	var entries []rankEntry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep *Report
		entries, rep = snapshotRanking(m, opts)
		rankNS += int64(rep.Phases.Ranking)
	}
	b.StopTimer()
	if len(entries) == 0 {
		b.Fatal("empty ranking snapshot")
	}
	b.ReportMetric(float64(rankNS)/float64(b.N), "rank-ns/op")
	if err := ir.VerifyModule(m); err != nil {
		b.Fatalf("module corrupted by snapshot: %v", err)
	}
}
