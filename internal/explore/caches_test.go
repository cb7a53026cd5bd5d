package explore

import (
	"reflect"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// TestKernelCrossCheck is the pipeline-level check of the alignment path
// and the per-function memo: on the quick corpora (every fourth SPEC-like
// profile, t=5) a run with the memo on must commit the identical merge
// records and leave the identical module as a run with it off, where every
// attempt re-linearizes, re-encodes and re-measures both inputs from
// scratch. The memo run uses four workers and the reference run one, so
// scheduling-dependent memo hits are exercised too. Together with the kernel oracle
// (align.TestCodedKernelsMatchOracle) and the encode contract tests, this
// pins the coded pipeline end to end.
func TestKernelCrossCheck(t *testing.T) {
	run := func(p workload.Profile, workers int, noMemo bool) (*Report, string) {
		m := workload.Build(p)
		opts := DefaultOptions()
		opts.Threshold = 5
		opts.Workers = workers
		opts.noMemo = noMemo
		rep := Run(m, opts)
		return rep, ir.FormatModule(m)
	}
	for _, p := range workload.Quick(workload.SPECLike()) {
		ref, refMod := run(p, 1, true)
		got, gotMod := run(p, 4, false)
		if ref.MergeOps == 0 {
			t.Fatalf("%s: no merges; the cross-check is vacuous", p.Name)
		}
		if !reflect.DeepEqual(ref.Records, got.Records) {
			t.Errorf("%s: merge records diverge with the memo on:\noff: %+v\non:  %+v",
				p.Name, ref.Records, got.Records)
		}
		if ref.SizeAfter != got.SizeAfter {
			t.Errorf("%s: final size diverges: memo off %d, on %d", p.Name, ref.SizeAfter, got.SizeAfter)
		}
		if refMod != gotMod {
			t.Errorf("%s: final module text diverges with the memo on", p.Name)
		}
		if got.SeqCacheHits == 0 {
			t.Errorf("%s: memo idle in the memo run (seq hits %d)", p.Name, got.SeqCacheHits)
		}
	}
}

// TestKernelCountersPopulated checks the new perf counters actually flow into
// the report on the default (coded, cached) configuration.
func TestKernelCountersPopulated(t *testing.T) {
	m := workload.Build(demoProfile(3))
	opts := DefaultOptions()
	opts.Threshold = 5
	rep := Run(m, opts)
	if rep.MergeOps == 0 {
		t.Fatal("no merges; counter test is vacuous")
	}
	if rep.AlignCells == 0 {
		t.Error("AlignCells stayed zero despite alignments running")
	}
	if rep.SeqCacheHits == 0 {
		t.Error("SeqCacheHits stayed zero despite the preloaded memo")
	}
	if rep.SeqCacheHits+rep.SeqCacheMisses == 0 {
		t.Error("cache counters not populated")
	}
}
