package global_test

import (
	"reflect"
	"runtime"
	"testing"

	"fmsa/internal/core"
	"fmsa/internal/explore"
	"fmsa/internal/global"
	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

func corpusProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: "globaltest", NumFuncs: 40, AvgSize: 22, MaxSize: 64,
		Identical: 0.25, TypeVar: 0.1, CFGVar: 0.05, Partial: 0.1,
		InternalFrac: 0.4, Seed: seed,
	}
}

// buildUnits rebuilds the corpus from scratch and splits it — split is
// input-order invariant (TestSplitPermutationInvariant), so every call
// yields identical units.
func buildUnits(t testing.TB, seed int64, n int) []*ir.Module {
	t.Helper()
	units, err := ir.SplitModule(workload.Build(corpusProfile(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func runMain(t *testing.T, m *ir.Module) uint64 {
	t.Helper()
	mc := interp.NewMachine(m)
	workload.RegisterIntrinsics(mc)
	v, err := mc.Run("main")
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return v
}

// TestGlobalWorkerDeterminism is the exploration determinism harness
// applied to cross-TU merging: every worker count must commit identical
// merge records and produce a byte-identical linked module.
func TestGlobalWorkerDeterminism(t *testing.T) {
	const nunits = 6
	type outcome struct {
		records []global.MergeRecord
		text    string
	}
	var base *outcome
	for _, workers := range []int{1, 2, 8} {
		opts := global.DefaultOptions()
		opts.Workers = workers
		linked, rep, err := global.Run(buildUnits(t, 3, nunits), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := &outcome{records: rep.Records, text: ir.FormatModule(linked)}
		if base == nil {
			base = got
			if len(rep.Records) == 0 {
				t.Fatal("corpus produced no merge records; determinism check is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(base.records, got.records) {
			t.Errorf("workers=%d: merge records diverge from baseline", workers)
		}
		if base.text != got.text {
			t.Errorf("workers=%d: linked module text diverges from baseline", workers)
		}
	}
}

// TestGlobalPreservesSemantics interprets the program before and after the
// full two-round pipeline.
func TestGlobalPreservesSemantics(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		want := runMain(t, workload.Build(corpusProfile(seed)))
		for _, nunits := range []int{1, 4, 8} {
			linked, _, err := global.Run(buildUnits(t, seed, nunits), global.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if diags := ir.VerifyModuleLevel(linked, ir.VerifyFull); len(diags) > 0 {
				t.Fatalf("seed=%d units=%d: %v", seed, nunits, diags[0])
			}
			if got := runMain(t, linked); got != want {
				t.Errorf("seed=%d units=%d: main() = %d, want %d", seed, nunits, got, want)
			}
		}
	}
}

// TestGlobalFoldsCrossTU pins the round-1/round-2 contract on a hand-built
// corpus: two structurally identical external functions in different units
// fold into one body plus a thunk, and the program still computes the same
// values.
func TestGlobalFoldsCrossTU(t *testing.T) {
	body := `
entry:
  %a = mul i64 %x, 3
  %b = add i64 %a, 7
  %c = xor i64 %b, %x
  %d = add i64 %c, %b
  ret i64 %d
}
`
	a := ir.MustParseModule("a", "define i64 @left(i64 %x) {"+body)
	b := ir.MustParseModule("b", "define i64 @right(i64 %x) {"+body)
	linked, rep, err := global.Run([]*ir.Module{a, b}, global.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FoldedFuncs != 1 || len(rep.Records) != 1 || rep.Records[0].Kind != "fold" {
		t.Fatalf("expected exactly one fold, got %+v", rep.Records)
	}
	mc := interp.NewMachine(linked)
	l, err := mc.Run("left", 11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Run("right", 11)
	if err != nil {
		t.Fatal(err)
	}
	if l != r {
		t.Errorf("left(11)=%d right(11)=%d diverge after folding", l, r)
	}
	// right must have become a forwarding thunk, not keep its body.
	if f := linked.FuncByName("right"); f == nil || f.NumInsts() > 2 {
		t.Errorf("right should be a thunk after the fold")
	}
}

// TestGlobalLocalOnlyNeverCrosses: functions referencing internal symbols
// must not fold or merge across units even when hashes collide by name.
func TestGlobalLocalOnlyNeverCrosses(t *testing.T) {
	mk := func(name, add string) *ir.Module {
		return ir.MustParseModule(name, `
define internal i64 @helper(i64 %x) {
entry:
  %r = add i64 %x, `+add+`
  ret i64 %r
}

define i64 @use_`+name+`(i64 %x) {
entry:
  %a = call i64 @helper(i64 %x)
  %b = mul i64 %a, 5
  %c = add i64 %b, %a
  %d = xor i64 %c, %b
  ret i64 %d
}
`)
	}
	a, b := mk("a", "1"), mk("b", "2")
	linked, _, err := global.Run([]*ir.Module{a, b}, global.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mc := interp.NewMachine(linked)
	ra, err := mc.Run("use_a", 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mc.Run("use_b", 10)
	if err != nil {
		t.Fatal(err)
	}
	// use_a computes with helper(+1), use_b with helper(+2); a cross-unit
	// fold of the callers would collapse the two results.
	if ra == rb {
		t.Errorf("use_a and use_b collapsed (%d == %d): local-only caller crossed units", ra, rb)
	}
}

// TestGlobalReducesExactScoring checks the tentpole's efficiency claim on a
// corpus scale small enough for CI: summary-based planning must evaluate
// far fewer pairs exactly than the quadratic candidate space.
func TestGlobalReducesExactScoring(t *testing.T) {
	_, rep, err := global.Run(buildUnits(t, 3, 6), global.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	quad := rep.Funcs * (rep.Funcs - 1) / 2
	if rep.ExactScoredPairs*3 > quad {
		t.Errorf("exact-scored %d of %d possible pairs: summary pruning is not pruning",
			rep.ExactScoredPairs, quad)
	}
	if rep.PairsMerged == 0 && rep.FoldedFuncs == 0 {
		t.Error("pipeline committed nothing on a similarity-rich corpus")
	}
}

// TestGlobalQuickCorpora gates the two-round pipeline on the quick
// SPEC-like corpora, each split into 4 translation units. Per corpus, the
// round-1 summaries must round-trip through the .fmsum wire format, round 2
// must exact-score at least one pair, and worker counts 1, 2 and 8 must
// commit identical merge records and link byte-identical modules. The
// corpora together must commit at least one record (473.astar alone
// commits none). In aggregate, summary-based planning must exact-score at
// least 30% fewer pairs than monolithic exploration at t=1, whose exact
// scoring is its alignment-scored ranking probes (RankProbes −
// RankPrefilterSkips).
func TestGlobalQuickCorpora(t *testing.T) {
	const (
		units            = 4
		reductionFloorPc = 30.0
	)
	workers := runtime.GOMAXPROCS(0)
	var exactMono, exactGlobal int64
	records := 0
	for _, p := range workload.Quick(workload.SPECLike()) {
		opts := explore.DefaultOptions()
		opts.Threshold = 1
		opts.Workers = workers
		rep := explore.Run(workload.Build(p), opts)
		exactMono += rep.RankProbes - rep.RankPrefilterSkips

		split := func() []*ir.Module {
			us, err := ir.SplitModule(workload.Build(p), units)
			if err != nil {
				t.Fatalf("%s: split: %v", p.Name, err)
			}
			return us
		}
		sums := global.Summarize(split(), workers)
		name, decoded, err := wire.DecodeSummaries(wire.EncodeSummaries(p.Name, sums))
		if err != nil {
			t.Errorf("%s: summary decode: %v", p.Name, err)
		} else if name != p.Name || !reflect.DeepEqual(decoded, sums) {
			t.Errorf("%s: summaries do not round-trip through the fmsum wire format", p.Name)
		}

		var baseRecords []global.MergeRecord
		var baseText string
		for i, gworkers := range []int{1, 2, 8} {
			gopts := global.DefaultOptions()
			gopts.Workers = gworkers
			linked, grep, err := global.Run(split(), gopts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, gworkers, err)
			}
			text := ir.FormatModule(linked)
			if i == 0 {
				baseRecords, baseText = grep.Records, text
				exactGlobal += int64(grep.ExactScoredPairs)
				records += len(grep.Records)
				if grep.ExactScoredPairs == 0 {
					t.Errorf("%s: round 2 exact-scored no pairs", p.Name)
				}
				continue
			}
			if !reflect.DeepEqual(baseRecords, grep.Records) {
				t.Errorf("%s workers=%d: merge records diverge from workers=1", p.Name, gworkers)
			} else if text != baseText {
				t.Errorf("%s workers=%d: linked module text diverges from workers=1", p.Name, gworkers)
			}
		}
	}
	if records == 0 {
		t.Error("no corpus committed a merge record; the worker comparison is vacuous")
	}
	if exactMono == 0 {
		t.Fatal("monolithic exploration exact-scored no pairs")
	}
	reduction := 100 * float64(exactMono-exactGlobal) / float64(exactMono)
	t.Logf("exact-scored pairs: monolithic %d, global %d (%.1f%% fewer)", exactMono, exactGlobal, reduction)
	if reduction < reductionFloorPc {
		t.Errorf("exact-scored pair reduction %.1f%% below the %.0f%% floor", reduction, reductionFloorPc)
	}
}

// FuzzStableHash fuzzes the satellite contract: equal stable hashes on
// self-comparable functions must imply column-for-column structural
// equality at core.EntriesEquivalent level, and hashing must be invariant
// under print→reparse.
func FuzzStableHash(f *testing.F) {
	profiles := []workload.Profile{
		{Name: "fz1", NumFuncs: 6, AvgSize: 10, MaxSize: 24, Identical: 0.5, Seed: 1},
		{Name: "fz2", NumFuncs: 6, AvgSize: 12, MaxSize: 24, TypeVar: 0.4, Seed: 2},
	}
	var seeds []string
	for _, p := range profiles {
		seeds = append(seeds, ir.FormatModule(workload.Build(p)))
	}
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, text1, text2 string) {
		m1, err := ir.ParseModule("m1", text1)
		if err != nil {
			return
		}
		m2, err := ir.ParseModule("m2", text2)
		if err != nil {
			return
		}
		defs := append(m1.Definitions(), m2.Definitions()...)
		type hashed struct {
			f      *ir.Func
			hash   uint64
			selfEq bool
		}
		hs := make([]hashed, len(defs))
		for i, fn := range defs {
			h, eq := global.StableHash(fn)
			hs[i] = hashed{fn, h, eq}
		}
		for i := range hs {
			for j := i + 1; j < len(hs); j++ {
				a, b := hs[i], hs[j]
				if a.hash != b.hash || !a.selfEq || !b.selfEq {
					continue
				}
				if a.f.Sig() != b.f.Sig() {
					t.Fatalf("equal hash, different signatures: %s vs %s", a.f.Name(), b.f.Name())
				}
				sa, sb := linearize.Linearize(a.f), linearize.Linearize(b.f)
				if len(sa) != len(sb) {
					t.Fatalf("equal hash, different linearization lengths: %s vs %s", a.f.Name(), b.f.Name())
				}
				for k := range sa {
					if !core.EntriesEquivalent(sa[k], sb[k]) {
						t.Fatalf("equal hash, entries diverge at %d: %s vs %s", k, a.f.Name(), b.f.Name())
					}
				}
			}
		}
		// Print→reparse invariance on every definition.
		re, err := ir.ParseModule("re", ir.FormatModule(m1))
		if err != nil {
			t.Fatalf("reparse of printed module failed: %v", err)
		}
		for _, fn := range m1.Definitions() {
			h1, eq1 := global.StableHash(fn)
			rf := re.FuncByName(fn.Name())
			h2, eq2 := global.StableHash(rf)
			if h1 != h2 || eq1 != eq2 {
				t.Fatalf("hash not print-stable for %s: %016x/%v vs %016x/%v",
					fn.Name(), h1, eq1, h2, eq2)
			}
		}
	})
}
