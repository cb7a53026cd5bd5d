package explore

import (
	"reflect"
	"sync/atomic"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// exploreWith builds the demo module and runs one exploration at the given
// worker count, returning the report and the final module text.
func exploreWith(t *testing.T, opts Options, workers int, seed int64) (*Report, string) {
	t.Helper()
	m := workload.Build(demoProfile(seed))
	opts.Workers = workers
	rep := Run(m, opts)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("post-verify (workers=%d): %v", workers, err)
	}
	return rep, ir.FormatModule(m)
}

// TestParallelDeterminism is the hard requirement of the parallel pipeline:
// Workers=1 and Workers=8 must commit the identical merge sequence and
// produce the identical module, across greedy and oracle configurations.
// Run under -race this also exercises the shared-use-list locking and the
// speculative evaluation wave for data races.
func TestParallelDeterminism(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"greedy-t1", func() Options { o := DefaultOptions(); o.Threshold = 1; return o }()},
		{"greedy-t10", func() Options { o := DefaultOptions(); o.Threshold = 10; return o }()},
		{"greedy-thumb", func() Options {
			o := DefaultOptions()
			o.Threshold = 5
			o.Target = tti.Thumb{}
			return o
		}()},
		{"oracle-cap8", func() Options {
			o := DefaultOptions()
			o.Oracle = true
			o.OracleCap = 8
			return o
		}()},
		{"oracle-unbounded", func() Options { o := DefaultOptions(); o.Oracle = true; return o }()},
		{"greedy-audit", func() Options {
			o := DefaultOptions()
			o.Threshold = 5
			o.Audit = AuditCommitted
			return o
		}()},
		{"greedy-audit-deep", func() Options {
			o := DefaultOptions()
			o.Threshold = 5
			o.Audit = AuditDeep
			return o
		}()},
		{"greedy-lsh-t1", func() Options {
			o := DefaultOptions()
			o.Ranking = RankLSH
			o.lshMinPool = 1 // demo pool is small; force the LSH path
			return o
		}()},
		{"greedy-lsh-t10", func() Options {
			o := DefaultOptions()
			o.Threshold = 10
			o.Ranking = RankLSH
			o.lshMinPool = 1
			return o
		}()},
		{"oracle-cap8-lsh", func() Options {
			o := DefaultOptions()
			o.Oracle = true
			o.OracleCap = 8
			o.Ranking = RankLSH
			o.lshMinPool = 1
			return o
		}()},
		// The default configs above already run with the per-function memo
		// on; this pins the memo-off path to the same bit-identical
		// requirement.
		{"greedy-nocaches", func() Options {
			o := DefaultOptions()
			o.Threshold = 5
			o.noMemo = true
			return o
		}()},
		// Pre-codegen bounding must be decision-invisible: the bound-off
		// configs here must match their bound-on twins above bit for bit
		// (the cross-config agreement is asserted separately by
		// TestBoundDecisionInvariance), and each must be Workers-invariant
		// on its own.
		{"greedy-t10-nobound", func() Options {
			o := DefaultOptions()
			o.Threshold = 10
			o.noBound = true
			return o
		}()},
		{"greedy-thumb-nobound", func() Options {
			o := DefaultOptions()
			o.Threshold = 5
			o.Target = tti.Thumb{}
			o.noBound = true
			return o
		}()},
		{"oracle-cap8-nobound", func() Options {
			o := DefaultOptions()
			o.Oracle = true
			o.OracleCap = 8
			o.noBound = true
			return o
		}()},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			serial, serialMod := exploreWith(t, cfg.opts, 1, 7)
			par, parMod := exploreWith(t, cfg.opts, 8, 7)

			if !reflect.DeepEqual(serial.Records, par.Records) {
				t.Errorf("merge records diverge:\nserial: %+v\nparallel: %+v",
					serial.Records, par.Records)
			}
			if !reflect.DeepEqual(serial.RankPositions, par.RankPositions) {
				t.Errorf("rank positions diverge: %v vs %v",
					serial.RankPositions, par.RankPositions)
			}
			if serial.CandidatesEvaluated != par.CandidatesEvaluated {
				t.Errorf("candidates evaluated diverge: %d vs %d",
					serial.CandidatesEvaluated, par.CandidatesEvaluated)
			}
			if serial.MergeOps != par.MergeOps || serial.FullyRemoved != par.FullyRemoved {
				t.Errorf("counters diverge: ops %d vs %d, removed %d vs %d",
					serial.MergeOps, par.MergeOps, serial.FullyRemoved, par.FullyRemoved)
			}
			if serial.SizeAfter != par.SizeAfter {
				t.Errorf("final size diverges: %d vs %d", serial.SizeAfter, par.SizeAfter)
			}
			if serial.AuditedMerges != par.AuditedMerges ||
				serial.AuditFlagged != par.AuditFlagged ||
				serial.AuditRejected != par.AuditRejected ||
				!reflect.DeepEqual(serial.AuditDiags, par.AuditDiags) {
				t.Errorf("audit results diverge: %d/%d/%d vs %d/%d/%d",
					serial.AuditedMerges, serial.AuditFlagged, serial.AuditRejected,
					par.AuditedMerges, par.AuditFlagged, par.AuditRejected)
			}
			if serial.RankProbes != par.RankProbes ||
				serial.RankPrefilterSkips != par.RankPrefilterSkips ||
				serial.RankFallbacks != par.RankFallbacks {
				t.Errorf("rank counters diverge: %d/%d/%d vs %d/%d/%d",
					serial.RankProbes, serial.RankPrefilterSkips, serial.RankFallbacks,
					par.RankProbes, par.RankPrefilterSkips, par.RankFallbacks)
			}
			if serialMod != parMod {
				t.Error("final module text diverges between Workers=1 and Workers=8")
			}
		})
	}
}

// TestBoundDecisionInvariance is the transparency requirement of pre-codegen
// profitability bounding: bounding on and off must commit the same merge
// sequence and produce the same module — the bound only skips materializing
// candidates the exact cost model would reject anyway. Each case runs three
// identically built modules: bounding off, bounding on, and bounding on with
// Merge.BoundAudit comparing every usable bound against the exact profit of
// the materialized pair, where no pair may price above its bound. The
// clone-rich demo corpus covers the greedy, Thumb and oracle configurations;
// the quick SPEC-like corpora run at t=5 on all cores. Every case must
// evaluate bounds, skip codegen and audit pairs, so no equality is vacuous.
// Run with -v to see each case's loose_pairs (bound > 0 but exact <= 0: a
// codegen a tighter bound could have skipped) and max_slack (largest
// bound − exact).
func TestBoundDecisionInvariance(t *testing.T) {
	type boundCase struct {
		name    string
		profile workload.Profile
		opts    Options
	}
	cases := []boundCase{
		{"greedy-t10", demoProfile(7), func() Options { o := DefaultOptions(); o.Threshold = 10; return o }()},
		{"greedy-thumb-t5", demoProfile(7), func() Options {
			o := DefaultOptions()
			o.Threshold = 5
			o.Target = tti.Thumb{}
			return o
		}()},
		{"oracle-cap8", demoProfile(7), func() Options {
			o := DefaultOptions()
			o.Oracle = true
			o.OracleCap = 8
			return o
		}()},
	}
	for i := range cases {
		cases[i].opts.Workers = 4
	}
	for _, p := range workload.Quick(workload.SPECLike()) {
		o := DefaultOptions()
		o.Threshold = 5
		cases = append(cases, boundCase{p.Name, p, o})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(opts Options) (*Report, string) {
				m := workload.Build(c.profile)
				rep := Run(m, opts)
				if err := ir.VerifyModule(m); err != nil {
					t.Fatalf("post-verify: %v", err)
				}
				return rep, ir.FormatModule(m)
			}
			off := c.opts
			off.noBound = true
			noB, noBMod := run(off)
			on, onMod := run(c.opts)

			var pairs, inadmissible, loose, maxSlack atomic.Int64
			audit := c.opts
			audit.Merge.BoundAudit = func(_, _ *ir.Func, bound, exact int) {
				pairs.Add(1)
				if exact > bound {
					inadmissible.Add(1)
				}
				if bound > 0 && exact <= 0 {
					loose.Add(1)
				}
				for slack := int64(bound - exact); ; {
					cur := maxSlack.Load()
					if slack <= cur || maxSlack.CompareAndSwap(cur, slack) {
						break
					}
				}
			}
			run(audit)
			t.Logf("merge_ops %d, bound_evals %d, codegen_skips %d, audited_pairs %d, loose_pairs %d, max_slack %d",
				on.MergeOps, on.BoundEvals, on.CodegenSkips, pairs.Load(), loose.Load(), maxSlack.Load())

			if !reflect.DeepEqual(on.Records, noB.Records) {
				t.Errorf("merge records diverge with bounding:\non:  %+v\noff: %+v",
					on.Records, noB.Records)
			}
			if on.SizeAfter != noB.SizeAfter {
				t.Errorf("final size diverges: %d (bound) vs %d (nobound)",
					on.SizeAfter, noB.SizeAfter)
			}
			if onMod != noBMod {
				t.Error("final module text diverges between bounding on and off")
			}
			if on.BoundEvals == 0 || on.CodegenSkips == 0 {
				t.Errorf("bounding enabled but the prune never fired: %d evals, %d skips",
					on.BoundEvals, on.CodegenSkips)
			}
			if noB.BoundEvals != 0 || noB.CodegenSkips != 0 {
				t.Errorf("noBound run still counted bounds: %d evals, %d skips",
					noB.BoundEvals, noB.CodegenSkips)
			}
			if pairs.Load() == 0 {
				t.Error("bound audit compared no pairs")
			}
			if n := inadmissible.Load(); n > 0 {
				t.Errorf("%d/%d audited pairs have exact profit above the bound", n, pairs.Load())
			}
		})
	}
}

// TestWorkersDefaultMatchesSerial checks the Workers=0 (all cores) default
// also reproduces the serial result.
func TestWorkersDefaultMatchesSerial(t *testing.T) {
	opts := DefaultOptions()
	opts.Threshold = 10
	serial, serialMod := exploreWith(t, opts, 1, 11)
	auto, autoMod := exploreWith(t, opts, 0, 11)
	if !reflect.DeepEqual(serial.Records, auto.Records) || serialMod != autoMod {
		t.Error("Workers=0 default diverges from Workers=1")
	}
}

// TestRankCacheMatchesFullRescan cross-checks the incremental ranking cache
// against a from-scratch scan after every commit: a clean cached list must
// equal scanTop over the live pool (and, in LSH mode, the live index) at the
// moment it is consumed.
func TestRankCacheMatchesFullRescan(t *testing.T) {
	for _, mode := range []RankingMode{RankExact, RankLSH} {
		t.Run(mode.String(), func(t *testing.T) {
			m := workload.Build(demoProfile(13))
			opts := DefaultOptions()
			opts.Threshold = 10
			opts.Ranking = mode
			opts.lshMinPool = 1
			opts.Workers = 1
			r := setup(m, opts)
			if mode == RankLSH && r.lsh == nil {
				t.Fatal("LSH state missing despite forced cutoff")
			}

			pops := 0
			for len(r.worklist) > 0 {
				f := r.worklist[0]
				r.worklist = r.worklist[1:]
				if !r.live(f) {
					continue
				}
				// Reference: what a from-scratch scan would rank right now.
				want := r.cache.scanTop(f)
				got := r.cache.take(f)
				if len(want) != len(got) {
					t.Fatalf("pop %d: cache returned %d candidates, rescan %d", pops, len(got), len(want))
				}
				for i := range want {
					if want[i].fn != got[i].fn {
						t.Fatalf("pop %d rank %d: cache has %s, rescan has %s",
							pops, i, got[i].fn.Name(), want[i].fn.Name())
					}
				}
				win, evaluated := evalCandidates(f, got, r.opts, 1, true, nil, nil)
				r.rep.CandidatesEvaluated += evaluated
				if win.res != nil {
					r.commit(win.res, win.profit, win.rank+1)
				}
				pops++
			}
			if r.rep.MergeOps == 0 {
				t.Fatal("expected merges on a clone-rich module")
			}
		})
	}
}

// TestReportAddAccumulatesRanking is a regression test: Add must fold the
// later stage's Ranking phase time (and every other phase) into the
// combined report.
func TestReportAddAccumulatesRanking(t *testing.T) {
	a := &Report{Phases: Phases{Fingerprint: 1, Ranking: 10, Linearize: 100, Align: 1000, CodeGen: 10000, UpdateCalls: 100000}}
	b := &Report{Phases: Phases{Fingerprint: 2, Ranking: 20, Linearize: 200, Align: 2000, CodeGen: 20000, UpdateCalls: 200000}}
	a.Add(b)
	want := Phases{Fingerprint: 3, Ranking: 30, Linearize: 300, Align: 3000, CodeGen: 30000, UpdateCalls: 300000}
	if a.Phases != want {
		t.Errorf("Add phase accumulation: got %+v, want %+v", a.Phases, want)
	}
}

// BenchmarkExplore measures the serial exploration pipeline end to end on
// the demo workload (t=10 so each pop ranks and evaluates many candidates).
func BenchmarkExplore(b *testing.B) {
	benchmarkExplore(b, 1)
}

// BenchmarkExploreParallel is the same workload at Workers=GOMAXPROCS; the
// ratio to BenchmarkExplore is the parallel speedup on this host.
func BenchmarkExploreParallel(b *testing.B) {
	benchmarkExplore(b, 0)
}

func benchmarkExplore(b *testing.B, workers int) {
	b.ReportAllocs()
	opts := DefaultOptions()
	opts.Threshold = 10
	opts.Workers = workers
	mods := make([]*ir.Module, b.N)
	for i := range mods {
		mods[i] = workload.Build(demoProfile(3))
	}
	b.ResetTimer()
	merges := 0
	for i := 0; i < b.N; i++ {
		rep := Run(mods[i], opts)
		merges += rep.MergeOps
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(merges)/b.Elapsed().Seconds(), "merges/s")
	}
}
