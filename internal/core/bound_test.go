package core

import (
	"sort"
	"testing"

	"fmsa/internal/encode"
	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// boundTargets are the cost models the admissibility property is checked
// against; the bound takes per-instruction floors from the target, so both
// must hold independently.
var boundTargets = []tti.Target{tti.X86{}, tti.Thumb{}}

// auditAllPairs merges every function pair of m (up to cap functions) with
// BoundAudit enabled and asserts the admissibility property — the bound must
// never be below the exact cost-model profit of the materialized merge.
// Returns how many pairs were audited and how many usable-bound-less merges
// (bail pairs) it saw.
func auditAllPairs(t *testing.T, m *ir.Module, target tti.Target, cap int) (audited, bailed int) {
	t.Helper()
	passes.DemotePhisModule(m)
	var funcs []*ir.Func
	for _, f := range m.Funcs {
		if !f.IsDecl() && !f.Sig().Variadic {
			funcs = append(funcs, f)
		}
	}
	if cap > 0 && len(funcs) > cap {
		funcs = funcs[:cap]
	}
	memo := NewFuncMemo(target, linearize.OrderRPO, encode.NewInterner())
	for i := 0; i < len(funcs); i++ {
		for j := i + 1; j < len(funcs); j++ {
			f1, f2 := funcs[i], funcs[j]
			called := false
			opts := DefaultOptions()
			opts.Memo = memo
			opts.Prune = &PruneSpec{
				Target: target,
				S1:     SnapshotCallerStats(f1),
				S2:     SnapshotCallerStats(f2),
			}
			opts.BoundAudit = func(a, b *ir.Func, bound, exact int) {
				called = true
				if exact > bound {
					t.Errorf("inadmissible bound for %s + %s on %s: bound %d < exact profit %d",
						a.Name(), b.Name(), target.Name(), bound, exact)
				}
			}
			res, err := Merge(f1, f2, opts)
			if err != nil {
				continue
			}
			if called {
				audited++
			} else {
				bailed++
			}
			res.Discard()
		}
	}
	return audited, bailed
}

// TestBoundAdmissibilityWorkload sweeps every pair of two workload corpora
// under both cost-model targets: the profitability upper bound must dominate
// the exact profit on every pair the merger can materialize. This is the
// property that makes pre-codegen pruning decision-invisible.
func TestBoundAdmissibilityWorkload(t *testing.T) {
	profiles := workload.UnscaledSmall()
	for _, spec := range []struct {
		name string
		cap  int
	}{
		{"429.mcf", 0},   // 24 functions, full pairwise sweep
		{"433.milc", 40}, // capped: keeps the quadratic sweep fast
	} {
		var prof workload.Profile
		for _, p := range profiles {
			if p.Name == spec.name {
				prof = p
			}
		}
		if prof.Name == "" {
			t.Fatalf("profile %s missing from UnscaledSmall", spec.name)
		}
		for _, target := range boundTargets {
			t.Run(spec.name+"/"+target.Name(), func(t *testing.T) {
				m := workload.Build(prof)
				audited, _ := auditAllPairs(t, m, target, spec.cap)
				if audited == 0 {
					t.Fatal("no pairs audited; the sweep is vacuous")
				}
			})
		}
	}
}

// adversarialIR packs the shapes that historically endanger an admissible
// bound: external linkage (thunk term), an address-taken function (thunk
// despite internal linkage), exception handling (landingpad hoisting and
// gap-demoted pads), return-type disagreement (conversion thunks), and
// heavy branch scaffolding that SimplifyCFG later deletes.
const adversarialIR = `
declare void @throw()
declare void @sink(i64)

define i32 @ext1(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  %r = add i32 %x, 7
  ret i32 %r
b:
  %s = mul i32 %x, 3
  ret i32 %s
}

define i32 @ext2(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 1
  br i1 %c, label %a, label %b
a:
  %r = add i32 %x, 9
  ret i32 %r
b:
  %s = mul i32 %x, 5
  ret i32 %s
}

define internal f64 @retf(f64 %x) {
entry:
  %r = fadd f64 %x, 2.0
  ret f64 %r
}

define internal i32 @reti(i32 %x) {
entry:
  %r = add i32 %x, 2
  ret i32 %r
}

define internal void @taken(i64 %x) {
entry:
  call void @sink(i64 %x)
  ret void
}

define internal void @taken2(i64 %x) {
entry:
  %y = add i64 %x, 4
  call void @sink(i64 %y)
  ret void
}

define internal i32 @eh1(i32 %x) {
entry:
  %r = invoke i32 @ext1(i32 %x) to label %ok unwind label %lpad
ok:
  ret i32 %r
lpad:
  %lp = landingpad cleanup
  ret i32 -1
}

define internal i32 @eh2(i32 %x) {
entry:
  %r = invoke i32 @ext2(i32 %x) to label %ok unwind label %lpad
ok:
  %r2 = add i32 %r, 1
  ret i32 %r2
lpad:
  %lp = landingpad cleanup
  ret i32 -2
}

define void @use(i64 %x) {
entry:
  call void @taken(i64 %x)
  %p = ptrtoint void (i64)* @taken to i64
  call void @sink(i64 %p)
  ret void
}
`

// TestBoundAdmissibilityAdversarial runs the pairwise audit over IR chosen
// to stress every term of the bound: thunk costs, caller growth, EH
// scaffolding and return-type conversions, under both targets.
func TestBoundAdmissibilityAdversarial(t *testing.T) {
	for _, target := range boundTargets {
		t.Run(target.Name(), func(t *testing.T) {
			m := ir.MustParseModule("adversarial", adversarialIR)
			if err := ir.VerifyModule(m); err != nil {
				t.Fatal(err)
			}
			audited, _ := auditAllPairs(t, m, target, 0)
			if audited == 0 {
				t.Fatal("no pairs audited; the sweep is vacuous")
			}
		})
	}
}

// constBranchIR holds a pair whose bodies branch on integer constants —
// SimplifyCFG folds such branches and can cascade-delete arbitrary cloned
// blocks, so no sound per-column floor exists and bounding must bail
// (no prune, no audit report) rather than guess.
const constBranchIR = `
define internal i32 @cb1(i32 %x) {
entry:
  br i1 1, label %a, label %b
a:
  %r = add i32 %x, 1
  ret i32 %r
b:
  %s = add i32 %x, 2
  ret i32 %s
}

define internal i32 @cb2(i32 %x) {
entry:
  br i1 1, label %a, label %b
a:
  %r = mul i32 %x, 3
  ret i32 %r
b:
  %s = mul i32 %x, 4
  ret i32 %s
}
`

// TestBoundBailsOnConstantBranches pins the bail path: a constant-condition
// branch makes the pair unboundable, so with BoundAudit set the merge still
// materializes but the hook must not fire, and with pruning live the pair
// must never be skipped (CodegenSkips stays zero).
func TestBoundBailsOnConstantBranches(t *testing.T) {
	m := ir.MustParseModule("constbr", constBranchIR)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	audited, bailed := auditAllPairs(t, m, tti.X86{}, 0)
	if audited != 0 || bailed != 1 {
		t.Fatalf("constant-branch pair: audited %d, bailed %d; want 0 audited, 1 bailed", audited, bailed)
	}

	// Pruning live (no audit hook): the bail must translate into "never
	// pruned", not "pruned with a made-up bound".
	m2 := ir.MustParseModule("constbr2", constBranchIR)
	f1, f2 := m2.FuncByName("cb1"), m2.FuncByName("cb2")
	tm := &Timings{}
	opts := DefaultOptions()
	opts.Timings = tm
	opts.Prune = &PruneSpec{
		Target: tti.X86{},
		S1:     SnapshotCallerStats(f1),
		S2:     SnapshotCallerStats(f2),
		// Even an absurd threshold must not prune an unboundable pair.
		MinProfit: 1 << 20,
	}
	res, err := Merge(f1, f2, opts)
	if err != nil {
		t.Fatalf("unboundable pair must not be pruned: %v", err)
	}
	res.Discard()
	if tm.CodegenSkips != 0 {
		t.Fatalf("CodegenSkips = %d on a bail pair, want 0", tm.CodegenSkips)
	}
}

// TestPruneSkipsHopelessPair pins the skip path end to end: with an
// unreachable MinProfit every boundable pair must return ErrHopeless and
// count a CodegenSkip, without materializing a merged function.
func TestPruneSkipsHopelessPair(t *testing.T) {
	m := ir.MustParseModule("adversarial", adversarialIR)
	f1, f2 := m.FuncByName("ext1"), m.FuncByName("ext2")
	before := len(m.Funcs)
	tm := &Timings{}
	opts := DefaultOptions()
	opts.Timings = tm
	opts.Prune = &PruneSpec{
		Target:    tti.X86{},
		S1:        SnapshotCallerStats(f1),
		S2:        SnapshotCallerStats(f2),
		MinProfit: 1 << 20,
	}
	res, err := Merge(f1, f2, opts)
	if err != ErrHopeless {
		if err == nil {
			res.Discard()
		}
		t.Fatalf("err = %v, want ErrHopeless", err)
	}
	if tm.BoundEvals != 1 || tm.CodegenSkips != 1 {
		t.Fatalf("counters = %d evals / %d skips, want 1/1", tm.BoundEvals, tm.CodegenSkips)
	}
	if len(m.Funcs) != before {
		t.Fatalf("pruned merge mutated the module: %d funcs, want %d", len(m.Funcs), before)
	}
}

// cfgFloorIR holds the control-flow shapes the cleanup-proof branch floor
// (brFloors.gapFloor) must get right. @diamond is the positive case; every
// other function is a shape where some unconditional branch must keep
// flooring at zero, because forwarding, straight-line merging, pad hoisting
// or a dispatch block may delete or reroute it.
const cfgFloorIR = `
declare i32 @g(i32)
declare void @sink(i32)

define internal i32 @diamond(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  br i1 %c, label %l, label %r
l:
  %a = add i32 %x, 1
  call void @sink(i32 %a)
  br label %join
r:
  %b = sub i32 %y, 1
  call void @sink(i32 %b)
  br label %join
join:
  %z = add i32 %x, %y
  ret i32 %z
}

define internal i64 @flat(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  %w = zext i1 %c to i64
  %m = mul i64 %w, 7
  ret i64 %m
}

define internal i32 @trivpred(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  br i1 %c, label %t, label %r
t:
  br label %join
r:
  %b = sub i32 %y, 1
  call void @sink(i32 %b)
  br label %join
join:
  %z = add i32 %x, %y
  ret i32 %z
}

define internal i32 @onepred(i32 %x) {
entry:
  %a = add i32 %x, 1
  call void @sink(i32 %a)
  br label %next
next:
  %b = mul i32 %a, 3
  ret i32 %b
}

define internal i32 @botharms(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  br i1 %c, label %mid, label %mid
mid:
  %a = add i32 %x, 1
  call void @sink(i32 %a)
  ret i32 %a
}

define internal i32 @spin(i32 %x) {
entry:
  %a = add i32 %x, 1
  call void @sink(i32 %a)
  br label %spin
spin:
  br label %spin
}

define internal void @loop(i32 %x) {
entry:
  %a = add i32 %x, 1
  call void @sink(i32 %a)
  br label %body
body:
  %b = add i32 %x, 2
  call void @sink(i32 %b)
  br label %body
}

define internal i32 @ehjoin(i32 %x) {
entry:
  %r = invoke i32 @g(i32 %x) to label %ok unwind label %lp
ok:
  call void @sink(i32 %r)
  br label %join
lp:
  %p = landingpad cleanup
  br label %join
join:
  %z = add i32 %x, 1
  ret i32 %z
}

define internal i32 @disp1(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  br i1 %c, label %p, label %q
p:
  %pa = add i32 %x, 1
  %pc = icmp slt i32 %pa, %y
  br i1 %pc, label %join, label %q
q:
  %qa = sub i32 %y, 1
  call void @sink(i32 %qa)
  br label %join
join:
  %z = mul i32 %x, %y
  ret i32 %z
}

define internal void @disp2(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  br i1 %c, label %p, label %p
p:
  %pa = add i32 %x, 1
  %pc = icmp slt i32 %pa, %y
  br i1 %pc, label %p, label %p
}

define internal i32 @invsplit1(i32 %x) {
entry:
  %r = invoke i32 @g(i32 %x) to label %ok unwind label %lp
ok:
  %s = add i32 %r, 5
  ret i32 %s
lp:
  %p = landingpad cleanup
  ret i32 0
}

define internal i32 @invsplit2(i32 %x) {
entry:
  %q = mul i32 %x, 3
  %s = add i32 %q, 5
  ret i32 %s
}
`

// landingTargetIR branches into a landing block, which the verifier
// rejects (landing blocks take unwind edges only); the static rule must
// still never anchor on one, since pad hoisting can turn it into an
// ordinary block whose predecessors then change.
const landingTargetIR = `
declare i32 @g(i32)
declare void @sink(i32)

define internal i32 @landtarget(i32 %x) {
entry:
  %a = add i32 %x, 2
  %r = invoke i32 @g(i32 %x) to label %ok unwind label %lp
ok:
  call void @sink(i32 %r)
  br label %lp
lp:
  %p = landingpad cleanup
  %z = add i32 %x, 1
  ret i32 %z
}
`

// brCandidates names the blocks of f whose unconditional branch the static
// rule accepts, and the blocks that can anchor the floor as a target.
func brCandidates(f *ir.Func) (cands, anchors map[string]bool) {
	seq := linearize.Linearize(f)
	fl := buildBrFloors(seq)
	cands, anchors = map[string]bool{}, map[string]bool{}
	if fl.target == nil {
		return cands, anchors
	}
	var labels []*ir.Block
	for _, e := range seq {
		if e.IsLabel() {
			labels = append(labels, e.Block)
		}
	}
	for k, b := range labels {
		if fl.target[k] >= 0 {
			cands[b.Name()] = true
		}
		if fl.start[k] < fl.start[k+1] {
			anchors[b.Name()] = true
		}
	}
	return cands, anchors
}

// TestBranchFloorStaticRule pins the static half of the rule on every
// fixture shape: which branches are candidates and which targets anchor.
func TestBranchFloorStaticRule(t *testing.T) {
	m := ir.MustParseModule("cfgfloor", cfgFloorIR)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	lt := ir.MustParseModule("landtarget", landingTargetIR)
	for _, tc := range []struct {
		f              *ir.Func
		cands, anchors []string
	}{
		// Both arms reach a join whose two predecessors keep two
		// instructions each: both branches count.
		{m.FuncByName("diamond"), []string{"l", "r"}, []string{"join"}},
		// A lone-branch predecessor is forwarded away; the join anchors
		// nothing, and the lone branch itself is never a candidate.
		{m.FuncByName("trivpred"), nil, nil},
		// A single predecessor: straight-line merging deletes the branch.
		{m.FuncByName("onepred"), nil, nil},
		// Two edges from one block are one predecessor.
		{m.FuncByName("botharms"), nil, nil},
		// A lone-branch self-loop fails the predecessor instruction count.
		{m.FuncByName("spin"), nil, nil},
		// A self-loop with a body is its own second predecessor.
		{m.FuncByName("loop"), []string{"entry", "body"}, []string{"body"}},
		// The landing predecessor keeps only its branch once its pad is
		// hoisted, so the join anchors nothing.
		{m.FuncByName("ehjoin"), nil, nil},
		// Statically the dispatch fixture is a candidate (q -> join); the
		// per-pair test below shows the matched branch in p disables it.
		{m.FuncByName("disp1"), []string{"q"}, []string{"q", "join"}},
		// The invoke's normal successor has one predecessor.
		{m.FuncByName("invsplit1"), nil, nil},
		// A landing block never anchors.
		{lt.FuncByName("landtarget"), nil, nil},
	} {
		cands, anchors := brCandidates(tc.f)
		if !sameNames(cands, tc.cands) || !sameNames(anchors, tc.anchors) {
			t.Errorf("@%s: candidates %v anchors %v, want %v and %v",
				tc.f.Name(), cands, anchors, tc.cands, tc.anchors)
		}
	}
}

func sameNames(got map[string]bool, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for _, n := range want {
		if !got[n] {
			return false
		}
	}
	return true
}

// pairBound merges f1 with f2 under BoundAudit and returns the bound and
// the exact profit. With noFloor the memo entries' floors are preloaded
// candidate-free, reproducing the bound that floors every unconditional
// branch at zero.
func pairBound(t *testing.T, f1, f2 *ir.Func, target tti.Target, noFloor bool) (bound, exact int) {
	t.Helper()
	memo := NewFuncMemo(target, linearize.OrderRPO, encode.NewInterner())
	if noFloor {
		for _, f := range []*ir.Func{f1, f2} {
			e, _ := memo.lookup(f)
			e.floors.Store(noBrFloors)
		}
	}
	called := false
	opts := DefaultOptions()
	opts.Memo = memo
	opts.Prune = &PruneSpec{
		Target: target,
		S1:     SnapshotCallerStats(f1),
		S2:     SnapshotCallerStats(f2),
	}
	opts.BoundAudit = func(_, _ *ir.Func, b, e int) { called, bound, exact = true, b, e }
	res, err := Merge(f1, f2, opts)
	if err != nil {
		t.Fatalf("merge %s + %s: %v", f1.Name(), f2.Name(), err)
	}
	res.Discard()
	if !called {
		t.Fatalf("merge %s + %s: bound bailed", f1.Name(), f2.Name())
	}
	return bound, exact
}

// TestBranchFloorAdversarial audits every fixture pair under both targets,
// then checks the per-pair half of the rule: the diamond's two branches
// tighten the bound by exactly two branch sizes against a partner sharing
// none of their blocks, and the dispatch fixture's candidate fires against
// the same partner but not against @disp2, whose matched conditional
// branch in the join's other predecessor becomes a dispatch-block edge.
func TestBranchFloorAdversarial(t *testing.T) {
	for _, target := range boundTargets {
		t.Run(target.Name(), func(t *testing.T) {
			m := ir.MustParseModule("cfgfloor", cfgFloorIR)
			if audited, _ := auditAllPairs(t, m, target, 0); audited == 0 {
				t.Fatal("no pairs audited; the sweep is vacuous")
			}

			br := target.InstSize(ir.NewInst(ir.OpBr, ir.Void(), ir.NewBlock("")))
			for _, tc := range []struct {
				f1, f2  string
				counted int // unconditional branches the floor must count
			}{
				{"diamond", "flat", 2},
				{"disp1", "flat", 1},
				{"disp1", "disp2", 0},
				{"trivpred", "flat", 0},
				{"invsplit1", "invsplit2", 0},
			} {
				f1, f2 := m.FuncByName(tc.f1), m.FuncByName(tc.f2)
				got, exact := pairBound(t, f1, f2, target, false)
				old, _ := pairBound(t, f1, f2, target, true)
				if exact > got {
					t.Errorf("%s + %s: bound %d below exact profit %d", tc.f1, tc.f2, got, exact)
				}
				if old-got != tc.counted*br {
					t.Errorf("%s + %s: floor tightened the bound by %d, want %d branches of %d",
						tc.f1, tc.f2, old-got, tc.counted, br)
				}
			}
		})
	}
}

// TestBoundPrunesHugeBodyPairs pins the branch floor on the body it was
// built for: 483.xalancbmk's @main, a 54,912-entry function whose trial
// merges all fail, against its five closest partners by fingerprint
// similarity (ties by name, so the choice does not depend on function
// order). With every unconditional branch floored at zero these bounds sat
// near +14,000; each must now prune (bound ≤ 0) and stay admissible
// against the materialized merge.
func TestBoundPrunesHugeBodyPairs(t *testing.T) {
	var prof workload.Profile
	for _, p := range workload.SPECLike() {
		if p.Name == "483.xalancbmk" {
			prof = p
		}
	}
	m := workload.Build(prof)
	passes.DemotePhisModule(m)
	main := m.FuncByName("main")
	fp := fingerprint.Compute(main)
	type partner struct {
		f   *ir.Func
		sim float64
	}
	var partners []partner
	for _, f := range m.Funcs {
		if f == main || f.IsDecl() || f.Sig().Variadic {
			continue
		}
		partners = append(partners, partner{f, fingerprint.Similarity(fp, fingerprint.Compute(f))})
	}
	sort.Slice(partners, func(i, j int) bool {
		if partners[i].sim != partners[j].sim {
			return partners[i].sim > partners[j].sim
		}
		return partners[i].f.Name() < partners[j].f.Name()
	})
	for _, p := range partners[:5] {
		bound, exact := pairBound(t, main, p.f, tti.X86{}, false)
		t.Logf("@main + @%s: bound %d, exact %d", p.f.Name(), bound, exact)
		if bound > 0 {
			t.Errorf("@main + @%s: bound %d does not prune (exact profit %d)", p.f.Name(), bound, exact)
		}
		if exact > bound {
			t.Errorf("@main + @%s: bound %d below exact profit %d", p.f.Name(), bound, exact)
		}
	}
}
