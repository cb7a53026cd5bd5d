package explore

import (
	"reflect"
	"testing"

	"fmsa/internal/align"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// TestKernelCrossCheck is the pipeline-level check of the alignment path:
// on the quick corpora (every fourth SPEC-like profile, t=5) a run with the
// linearization cache and the alignment memo on must commit the identical
// merge records and leave the identical module as a run with both disabled,
// where every attempt re-linearizes, re-encodes and re-aligns from scratch.
// The cached run uses four workers and the reference run one, so
// scheduling-dependent cache hits are exercised too. Together with the kernel oracle
// (align.TestCodedKernelsMatchOracle) and the encode contract tests, this
// pins the coded pipeline end to end.
func TestKernelCrossCheck(t *testing.T) {
	run := func(p workload.Profile, workers int, noCaches bool) (*Report, string) {
		m := workload.Build(p)
		opts := DefaultOptions()
		opts.Threshold = 5
		opts.Workers = workers
		opts.noSeqCache, opts.noAlignMemo = noCaches, noCaches
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
			t.Errorf("%s: merge records diverge with caches on:\noff: %+v\non:  %+v",
				p.Name, ref.Records, got.Records)
		}
		if ref.SizeAfter != got.SizeAfter {
			t.Errorf("%s: final size diverges: caches off %d, on %d", p.Name, ref.SizeAfter, got.SizeAfter)
		}
		if refMod != gotMod {
			t.Errorf("%s: final module text diverges with caches on", p.Name)
		}
		if got.SeqCacheHits == 0 || got.AlignMemoHits+got.AlignMemoMisses == 0 {
			t.Errorf("%s: caches idle in the cached run (seq hits %d, memo lookups %d)",
				p.Name, got.SeqCacheHits, got.AlignMemoHits+got.AlignMemoMisses)
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
		t.Error("SeqCacheHits stayed zero despite the pre-built linearization cache")
	}
	if rep.SeqCacheHits+rep.SeqCacheMisses == 0 || rep.AlignMemoHits+rep.AlignMemoMisses == 0 {
		t.Error("cache counters not populated")
	}
	// The demo profile has identical-clone populations, so the memo must
	// observe at least one repeated code-sequence pair.
	if rep.AlignMemoHits == 0 {
		t.Error("AlignMemoHits stayed zero on a clone-rich module")
	}
}

// TestAlignMemoVerifiesCodes crafts two encodings with identical hashes and
// lengths but different codes: a lookup keyed by the colliding pair must
// miss (collision degrades to recomputation, never a wrong alignment).
func TestAlignMemoVerifiesCodes(t *testing.T) {
	am := newAlignMemo(8)
	a := &encode.Encoded{Codes: []uint32{1, 2, 3}, Hash: 42}
	b := &encode.Encoded{Codes: []uint32{4, 5, 6}, Hash: 99}
	steps := []align.Step{{Op: align.OpMatch, I: 0, J: 0}}
	am.Store(a, b, steps)

	if got, ok := am.Lookup(a, b); !ok || !reflect.DeepEqual(got, steps) {
		t.Fatal("exact-key lookup must hit")
	}
	// Same Hash and length as a, different codes: forged collision.
	aCollide := &encode.Encoded{Codes: []uint32{7, 8, 9}, Hash: 42}
	if _, ok := am.Lookup(aCollide, b); ok {
		t.Error("hash collision served a wrong alignment; Lookup must verify codes")
	}
	bCollide := &encode.Encoded{Codes: []uint32{4, 5, 7}, Hash: 99}
	if _, ok := am.Lookup(a, bCollide); ok {
		t.Error("hash collision on the second operand must also miss")
	}
}

// TestAlignMemoCapStopsInserts pins the bounded-memo policy: a full memo
// rejects new keys but keeps serving existing ones, and Store never evicts.
func TestAlignMemoCapStopsInserts(t *testing.T) {
	am := newAlignMemo(1)
	a := &encode.Encoded{Codes: []uint32{1}, Hash: 1}
	b := &encode.Encoded{Codes: []uint32{2}, Hash: 2}
	am.Store(a, b, []align.Step{{Op: align.OpMismatch, I: 0, J: 0}})

	c := &encode.Encoded{Codes: []uint32{3}, Hash: 3}
	am.Store(a, c, []align.Step{{Op: align.OpMatch, I: 0, J: 0}})
	if _, ok := am.Lookup(a, c); ok {
		t.Error("full memo accepted an insert beyond its cap")
	}
	if _, ok := am.Lookup(a, b); !ok {
		t.Error("full memo dropped an existing entry")
	}
}
