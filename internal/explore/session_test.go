package explore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// sessionSpecs is a corpus description a test can mutate and rebuild: the
// session sees each state as a fresh module (exactly how a CI resubmit
// arrives), and a cold run of the same state is always available for
// comparison.
func sessionSpecs(n int) []workload.FuncSpec {
	specs := make([]workload.FuncSpec, 0, n)
	for i := 0; i < n; i++ {
		// Clone families via shared seeds: every third function repeats an
		// earlier template, so the corpus is merge-rich.
		seed := int64(100 + i)
		if i%3 == 2 {
			seed = int64(100 + i - 2)
		}
		specs = append(specs, workload.FuncSpec{
			Name:        fmt.Sprintf("f%03d", i),
			Seed:        seed,
			Scalar:      ir.I64(),
			NumParams:   1 + i%3,
			Regions:     2 + i%2,
			OpsPerBlock: 5 + i%4,
			Internal:    true,
		})
	}
	return specs
}

func buildFromSpecs(specs []workload.FuncSpec) *ir.Module {
	m := ir.NewModule("sess")
	for _, sp := range specs {
		workload.Generate(m, sp)
	}
	return m
}

func printModule(t *testing.T, m *ir.Module) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ir.PrintModule(&buf, m); err != nil {
		t.Fatalf("print: %v", err)
	}
	return buf.String()
}

// mergeOutcome is the identity-relevant slice of a report: everything a
// cold run must reproduce bit-for-bit. Scheduling-dependent counters
// (cache hits, bound evals) and timings are deliberately excluded, as is
// SizeBefore (a session measures it after φ-demotion).
type mergeOutcome struct {
	MergeOps            int
	FullyRemoved        int
	CandidatesEvaluated int
	RankPositions       []int
	Records             []MergeRecord
	SizeAfter           int
}

func outcomeOf(rep *Report) mergeOutcome {
	return mergeOutcome{
		MergeOps:            rep.MergeOps,
		FullyRemoved:        rep.FullyRemoved,
		CandidatesEvaluated: rep.CandidatesEvaluated,
		RankPositions:       rep.RankPositions,
		Records:             rep.Records,
		SizeAfter:           rep.SizeAfter,
	}
}

func sessionOpts(workers int, ranking RankingMode) Options {
	opts := DefaultOptions()
	opts.Threshold = 2
	opts.Workers = workers
	opts.Ranking = ranking
	if ranking == RankLSH {
		opts.LSHMinPool = 1 // engage the index even on small test pools
	}
	return opts
}

// xalancShrink is 483.xalancbmk cut to 350 functions of at most 200
// instructions: large enough that a warm 1% delta skips most of a cold
// session's work, small enough for the race-detector suite.
func xalancShrink(t *testing.T) workload.Profile {
	t.Helper()
	for _, p := range workload.SPECLike() {
		if p.Name == "483.xalancbmk" {
			p.NumFuncs = 350
			p.MaxSize = min(p.MaxSize, 200)
			return p
		}
	}
	t.Fatal("483.xalancbmk missing from the SPEC-like suite")
	return workload.Profile{}
}

// editConsts bumps the first integer constant of frac of m's definitions
// (at least one), which changes their stable hashes and nothing else. salt
// rotates the selection, so successive edits touch different functions.
// Returns the number of functions edited.
func editConsts(m *ir.Module, frac float64, salt int) int {
	defs := m.Definitions()
	want := max(int(float64(len(defs))*frac), 1)
	edited := 0
	for off := 0; off < len(defs) && edited < want; off++ {
		f := defs[(off+salt*want)%len(defs)]
		done := false
		f.Insts(func(in *ir.Inst) {
			for i := 0; i < in.NumOperands() && !done; i++ {
				if ci, ok := in.Operand(i).(*ir.ConstInt); ok {
					in.SetOperand(i, ir.NewConstInt(ci.Type(), ci.V+int64(salt)+1))
					done = true
				}
			}
		})
		if done {
			edited++
		}
	}
	return edited
}

// TestSessionWarmColdIdentical: a warm resubmission with a small delta
// produces bit-identical merge records — and a bit-identical module — to a
// cold session and to a plain Run, for every worker count and for both
// ranking modes.
func TestSessionWarmColdIdentical(t *testing.T) {
	base := sessionSpecs(90)
	delta := append([]workload.FuncSpec(nil), base...)
	delta[10].ConstSalt += 7                  // changed
	delta[41].Seed += 1000                    // changed (structurally)
	delta = append(delta[:60], delta[61:]...) // removed
	delta = append(delta, workload.FuncSpec{  // added
		Name: "fnew", Seed: 103, Scalar: ir.I64(), NumParams: 2,
		Regions: 2, OpsPerBlock: 6, Internal: true,
	})

	for _, ranking := range []RankingMode{RankExact, RankLSH} {
		var wantOutcome *mergeOutcome
		var wantModule string
		for _, workers := range []int{1, 2, 8} {
			opts := sessionOpts(workers, ranking)

			warmSess, err := NewSession(SessionConfig{Explore: opts})
			if err != nil {
				t.Fatal(err)
			}
			if _, d, err := warmSess.Submit(buildFromSpecs(base)); err != nil {
				t.Fatal(err)
			} else if d.Warm || d.Added != d.Funcs {
				t.Fatalf("first submit misclassified: %+v", d)
			}
			mWarm := buildFromSpecs(delta)
			repWarm, dWarm, err := warmSess.Submit(mWarm)
			if err != nil {
				t.Fatal(err)
			}
			if !dWarm.Warm || dWarm.Changed != 2 || dWarm.Added != 1 || dWarm.Removed != 1 {
				t.Fatalf("ranking=%v workers=%d: unexpected delta %+v", ranking, workers, dWarm)
			}
			if dWarm.SeededLists == 0 {
				t.Fatalf("ranking=%v workers=%d: no lists seeded on a 97%% unchanged resubmit", ranking, workers)
			}

			coldSess, err := NewSession(SessionConfig{Explore: opts})
			if err != nil {
				t.Fatal(err)
			}
			mCold := buildFromSpecs(delta)
			repCold, _, err := coldSess.Submit(mCold)
			if err != nil {
				t.Fatal(err)
			}

			mPlain := buildFromSpecs(delta)
			repPlain := Run(mPlain, opts)

			warmOut, coldOut, plainOut := outcomeOf(repWarm), outcomeOf(repCold), outcomeOf(repPlain)
			if !reflect.DeepEqual(warmOut, coldOut) {
				t.Fatalf("ranking=%v workers=%d: warm != cold session\nwarm: %+v\ncold: %+v",
					ranking, workers, warmOut, coldOut)
			}
			if !reflect.DeepEqual(warmOut, plainOut) {
				t.Fatalf("ranking=%v workers=%d: warm session != plain Run\nwarm: %+v\nplain: %+v",
					ranking, workers, warmOut, plainOut)
			}
			if got, want := printModule(t, mWarm), printModule(t, mCold); got != want {
				t.Fatalf("ranking=%v workers=%d: warm and cold merged modules differ", ranking, workers)
			}
			if wantOutcome == nil {
				out := warmOut
				wantOutcome = &out
				wantModule = printModule(t, mWarm)
			} else {
				if !reflect.DeepEqual(warmOut, *wantOutcome) {
					t.Fatalf("ranking=%v: outcome differs across worker counts at %d", ranking, workers)
				}
				if printModule(t, mWarm) != wantModule {
					t.Fatalf("ranking=%v: merged module differs across worker counts at %d", ranking, workers)
				}
			}
		}
	}
}

// TestSessionWarmWorkFloor: a warm 1% constant delta on the xalancbmk
// shrink (t=20, one worker, so every count repeats exactly) aligns at least
// 5x fewer DP cells and evaluates the bound at least 5x less often than a
// cold session on the same module, and merges identically. Warm sessions
// owe this to the negative-attempt memo, which skips attempts outright, and
// to the session-lived alignment memo, which answers more lookups warm than
// a cold run answers from its own earlier alignments.
func TestSessionWarmWorkFloor(t *testing.T) {
	if raceDetector {
		t.Skip("single-threaded; check.sh's serve gate runs it without -race")
	}
	t.Parallel()
	opts := DefaultOptions()
	opts.Threshold = 20
	opts.Workers = 1
	build := func(edit bool) *ir.Module {
		m := workload.Build(xalancShrink(t))
		if edit {
			editConsts(m, 0.01, 1)
		}
		return m
	}
	warm, err := NewSession(SessionConfig{Explore: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.Submit(build(false)); err != nil {
		t.Fatal(err)
	}
	repWarm, d, err := warm.Submit(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Warm || d.Changed == 0 {
		t.Fatalf("delta resubmit misclassified: %+v", d)
	}
	cold, err := NewSession(SessionConfig{Explore: opts})
	if err != nil {
		t.Fatal(err)
	}
	repCold, _, err := cold.Submit(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcomeOf(repWarm), outcomeOf(repCold)) {
		t.Fatal("warm delta resubmit merged differently from a cold session")
	}
	t.Logf("align cells: cold %d, warm %d; bound evals: cold %d, warm %d; memo hits: cold %d, warm %d",
		repCold.AlignCells, repWarm.AlignCells, repCold.BoundEvals, repWarm.BoundEvals,
		repCold.AlignMemoHits, repWarm.AlignMemoHits)
	if d.NegHits == 0 {
		t.Error("the warm submit skipped no attempt through the negative-attempt memo")
	}
	if repWarm.AlignMemoHits <= repCold.AlignMemoHits {
		t.Errorf("warm submit hit the alignment memo %d times, cold %d: no alignment carried over",
			repWarm.AlignMemoHits, repCold.AlignMemoHits)
	}
	if repCold.AlignCells == 0 || repWarm.AlignCells*5 > repCold.AlignCells {
		t.Errorf("warm submit aligned %d cells against cold %d: less than 5x fewer",
			repWarm.AlignCells, repCold.AlignCells)
	}
	if repCold.BoundEvals == 0 || repWarm.BoundEvals*5 > repCold.BoundEvals {
		t.Errorf("warm submit evaluated the bound %d times against cold %d: less than 5x fewer",
			repWarm.BoundEvals, repCold.BoundEvals)
	}
}

// TestSessionIdenticalResubmit: resubmitting the same corpus diffs as 100%
// unchanged, seeds every list, and still reproduces the cold outcome.
func TestSessionIdenticalResubmit(t *testing.T) {
	specs := sessionSpecs(60)
	opts := sessionOpts(2, RankExact)
	s, err := NewSession(SessionConfig{Explore: opts})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := s.Submit(buildFromSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	again, d, err := s.Submit(buildFromSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	if d.Unchanged != d.Funcs || d.Changed+d.Added+d.Removed != 0 {
		t.Fatalf("identical resubmit misclassified: %+v", d)
	}
	if d.SeededLists != d.Funcs {
		t.Fatalf("identical resubmit should seed every list: %+v", d)
	}
	if d.NegHits == 0 {
		t.Fatal("identical resubmit hit no negative-memo entries")
	}
	if !reflect.DeepEqual(outcomeOf(first), outcomeOf(again)) {
		t.Fatalf("identical resubmit changed the outcome\nfirst: %+v\nagain: %+v",
			outcomeOf(first), outcomeOf(again))
	}
}

// TestSessionConvergesToCold: any sequence of submit/evict/resubmit steps —
// random changes, additions, removals, reorderings, identical resubmits —
// converges to the same merge records as a single cold run of the final
// corpus state. Every intermediate state is checked too, so the session can
// never drift and silently recover.
func TestSessionConvergesToCold(t *testing.T) {
	for _, ranking := range []RankingMode{RankExact, RankLSH} {
		rng := rand.New(rand.NewSource(42))
		specs := sessionSpecs(50)
		opts := sessionOpts(3, ranking)
		sess, err := NewSession(SessionConfig{Explore: opts})
		if err != nil {
			t.Fatal(err)
		}
		nextName := 0
		for step := 0; step < 8; step++ {
			switch rng.Intn(5) {
			case 0: // identical resubmit
			case 1: // mutate a few constants/structures
				for k := 0; k < 1+rng.Intn(3); k++ {
					i := rng.Intn(len(specs))
					if rng.Intn(2) == 0 {
						specs[i].ConstSalt++
					} else {
						specs[i].Seed += 5000
					}
				}
			case 2: // add functions
				for k := 0; k < 1+rng.Intn(2); k++ {
					specs = append(specs, workload.FuncSpec{
						Name:        fmt.Sprintf("g%03d", nextName),
						Seed:        int64(100 + rng.Intn(40)),
						Scalar:      ir.I64(),
						NumParams:   1 + rng.Intn(3),
						Regions:     2,
						OpsPerBlock: 5 + rng.Intn(3),
						Internal:    true,
					})
					nextName++
				}
			case 3: // remove a function
				if len(specs) > 10 {
					i := rng.Intn(len(specs))
					specs = append(specs[:i], specs[i+1:]...)
				}
			case 4: // reorder: move one spec to the front (breaks pool order)
				i := rng.Intn(len(specs))
				sp := specs[i]
				specs = append(specs[:i], specs[i+1:]...)
				specs = append([]workload.FuncSpec{sp}, specs...)
			}

			mSess := buildFromSpecs(specs)
			repSess, d, err := sess.Submit(mSess)
			if err != nil {
				t.Fatal(err)
			}
			if d.Unchanged+d.Changed+d.Added != d.Funcs {
				t.Fatalf("step %d: delta does not partition the pool: %+v", step, d)
			}
			mCold := buildFromSpecs(specs)
			repCold := Run(mCold, opts)
			if !reflect.DeepEqual(outcomeOf(repSess), outcomeOf(repCold)) {
				t.Fatalf("ranking=%v step %d (delta %+v): session diverged from cold run\nsess: %+v\ncold: %+v",
					ranking, step, d, outcomeOf(repSess), outcomeOf(repCold))
			}
			if got, want := printModule(t, mSess), printModule(t, mCold); got != want {
				t.Fatalf("ranking=%v step %d: merged modules differ", ranking, step)
			}
		}
	}
}

// TestSessionRejectsUnsupportedModes: oracle and partitioned exploration
// cannot seed and are rejected up front.
func TestSessionRejectsUnsupportedModes(t *testing.T) {
	opts := DefaultOptions()
	opts.Oracle = true
	if _, err := NewSession(SessionConfig{Explore: opts}); err == nil {
		t.Fatal("oracle session was accepted")
	}
	opts = DefaultOptions()
	opts.Partition = map[*ir.Func]int{}
	if _, err := NewSession(SessionConfig{Explore: opts}); err == nil {
		t.Fatal("partitioned session was accepted")
	}
}

// TestSessionSummaries: the summary table tracks the live corpus and reuses
// unchanged entries.
func TestSessionSummaries(t *testing.T) {
	specs := sessionSpecs(30)
	s, err := NewSession(SessionConfig{Explore: sessionOpts(2, RankExact), Summaries: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(buildFromSpecs(specs)); err != nil {
		t.Fatal(err)
	}
	sums := s.Summaries()
	if len(sums) != 30 {
		t.Fatalf("got %d summaries, want 30", len(sums))
	}
	before := make(map[string]uint64, len(sums))
	for _, fs := range sums {
		before[fs.Name] = fs.Hash
	}
	specs[7].ConstSalt++
	if _, _, err := s.Submit(buildFromSpecs(specs)); err != nil {
		t.Fatal(err)
	}
	after := s.Summaries()
	if len(after) != 30 {
		t.Fatalf("got %d summaries after resubmit, want 30", len(after))
	}
	changed := 0
	for _, fs := range after {
		if before[fs.Name] != fs.Hash {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("expected exactly the mutated function's summary hash to change, got %d", changed)
	}
}
