package global

import (
	"bytes"
	"fmt"

	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/par"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
)

// Options configure a global merging run.
type Options struct {
	// Target is the code-size cost model; nil means x86-64.
	Target tti.Target
	// Workers bounds goroutines in the summarize and evaluation fan-outs;
	// <= 0 means GOMAXPROCS. Results never depend on it.
	Workers int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{} }

// MergeRecord is one committed transformation, in commit order. Records are
// bit-identical across worker counts.
type MergeRecord struct {
	// Kind is "fold" (hash-identical body replaced by a thunk to the
	// leader) or "merge" (aligned pairwise merge).
	Kind string `json:"kind"`
	// Merged names the function the originals now forward to.
	Merged string `json:"merged"`
	// F1 and F2 qualify the originals as "unitIndex:name".
	F1 string `json:"f1"`
	F2 string `json:"f2"`
	// Profit is the modeled size saving (bytes for merges, instructions
	// for folds).
	Profit int `json:"profit"`
}

// Report summarizes one Run.
type Report struct {
	TUs, Funcs                int
	FoldGroups, FoldedFuncs   int
	PairsPlanned, PairsMerged int
	// ExactScoredPairs counts pairs that reached exact evaluation
	// (alignment + cost model); the monolithic pipeline's equivalent is
	// its exact-Jaccard ranking probes.
	ExactScoredPairs int
	// ProbePairs counts summary-estimate candidate comparisons.
	ProbePairs int
	// PrunedByBound counts evaluations the PR-5 bound cut short.
	PrunedByBound int64
	// AlignCells counts alignment DP cells computed.
	AlignCells int64
	Records    []MergeRecord
	// SizeBefore/SizeAfter are instruction totals across the units before
	// and after, SizeAfter measured on the linked result.
	SizeBefore, SizeAfter int
}

// pairState carries one planned pair through import → evaluate → commit.
type pairState struct {
	f1, f2 *ir.Func // f2 is the import clone when the pair crosses units
	clone  bool
	skip   bool
	res    *core.Result
	profit int
}

// Run executes the two-round protocol over units — each a translation unit
// that stays a separate module throughout — and returns the final linked
// module plus the report. The units are consumed.
//
// Determinism: round 1 summaries are per-function pure; the plan is a pure
// function of the summaries; all module mutations (fold commits, imports,
// pair commits, cleanup) happen serially in plan order; the parallel
// evaluation wave computes each pair's merge exactly once on bodies no
// other pair touches. Workers therefore batches work without influencing
// any result bit.
func Run(units []*ir.Module, opts Options) (*ir.Module, *Report, error) {
	if opts.Target == nil {
		opts.Target = tti.X86{}
	}
	workers := par.Workers(opts.Workers)
	rep := &Report{TUs: len(units)}

	// Round 1: demote phis (core.Merge precondition, per-unit local), then
	// summarize in parallel.
	par.For(len(units), workers, func(i int) {
		passes.DemotePhisModule(units[i])
	})
	for _, u := range units {
		rep.SizeBefore += u.NumInsts()
		rep.Funcs += len(u.Definitions())
	}
	sums := Summarize(units, workers)

	plan := BuildPlan(sums)
	rep.ProbePairs = plan.ProbePairs
	rep.PairsPlanned = len(plan.Pairs)

	resolve := func(r Ref) *ir.Func { return units[r.TU].FuncByName(r.Name) }

	// Fold commits, serial in plan order.
	for _, fold := range plan.Folds {
		committed := commitFold(units, fold, resolve, rep)
		if committed > 0 {
			rep.FoldGroups++
		}
	}

	// Pair imports, serial in plan order.
	states := make([]pairState, len(plan.Pairs))
	for i, pair := range plan.Pairs {
		states[i] = importPair(units, pair, resolve)
	}

	// One parallel evaluation wave. Every pair is evaluated exactly once,
	// on its own pristine pair of bodies, so the worker interleaving cannot
	// change an outcome.
	var wave []int
	for i := range states {
		if !states[i].skip {
			wave = append(wave, i)
		}
	}
	rep.ExactScoredPairs = len(wave)
	timings := &core.Timings{}
	base := core.DefaultOptions()
	base.NamePrefix = "gm"
	base.Timings = timings
	base.Memo = core.NewFuncMemo(opts.Target, base.Order, encode.NewInterner())
	stats := core.CallerStats{AddressTaken: true} // thunk-commit semantics
	par.For(len(wave), workers, func(w int) {
		st := &states[wave[w]]
		mo := base
		mo.Prune = &core.PruneSpec{Target: opts.Target, S1: stats, S2: stats}
		res, err := core.Merge(st.f1, st.f2, mo)
		if err != nil {
			return
		}
		profit := res.ProfitWithStats(opts.Target, stats, stats, base.Memo)
		if profit <= 0 {
			res.Discard()
			return
		}
		st.res, st.profit = res, profit
	})

	// Pair commits, serial in plan order.
	for i, pair := range plan.Pairs {
		commitPair(units, pair, &states[i], rep)
	}

	// Cleanup: prune declarations orphaned by dropped bodies and skipped
	// imports, unit by unit.
	for _, u := range units {
		for _, f := range append([]*ir.Func(nil), u.Funcs...) {
			if f.IsDecl() && f.NumUses() == 0 {
				u.RemoveFunc(f)
			}
		}
	}

	rep.PrunedByBound = timings.CodegenSkips
	rep.AlignCells = timings.AlignCells

	linked, err := ir.LinkModules("global", units...)
	if err != nil {
		return nil, rep, fmt.Errorf("global: relink: %w", err)
	}
	rep.SizeAfter = linked.NumInsts()
	return linked, rep, nil
}

func qual(r Ref) string { return fmt.Sprintf("%d:%s", r.TU, r.Name) }

// commitFold thunks every validated member to the fold's leader, promoting
// and renaming the leader first when the plan calls for it. Returns the
// number of members committed.
func commitFold(units []*ir.Module, fold Fold, resolve func(Ref) *ir.Func, rep *Report) int {
	leader := resolve(fold.Leader)
	if leader == nil || leader.IsDecl() {
		return 0
	}
	leaderMod := units[fold.Leader.TU]
	if fold.NewName != "" {
		if leaderMod.FuncByName(fold.NewName) != nil {
			return 0 // planned name shadowed by a local declaration
		}
		leader.SetName(fold.NewName)
		leader.Linkage = ir.ExternalLinkage
	}
	leaderKey, leaderEq := AppendStableKey(nil, leader)
	if !leaderEq {
		return 0
	}

	committed := 0
	for _, mref := range fold.Members {
		member := resolve(mref)
		if member == nil || member.IsDecl() || member.Sig() != leader.Sig() {
			continue
		}
		// Hash equality planned the fold; byte equality of the canonical
		// keys commits it (FNV collisions must not change semantics).
		memberKey, memberEq := AppendStableKey(nil, member)
		if !memberEq || !bytes.Equal(leaderKey, memberKey) {
			continue
		}
		callee := leader
		if mref.TU != fold.Leader.TU {
			callee = externRef(units[mref.TU], leader.Name(), leader.Sig())
			if callee == nil {
				continue
			}
		}
		sizeBefore := member.NumInsts()
		member.DropBody()
		pmap := make([]int, len(member.Params))
		for i := range pmap {
			pmap[i] = i
		}
		core.ForwardThunk(member, callee, false, false, pmap)
		rep.Records = append(rep.Records, MergeRecord{
			Kind: "fold", Merged: leader.Name(),
			F1: qual(fold.Leader), F2: qual(mref),
			Profit: sizeBefore - member.NumInsts(),
		})
		rep.FoldedFuncs++
		committed++
	}
	return committed
}

// externRef returns a local way to reference the external symbol name with
// the given signature from unit u, creating a declaration on demand. It
// returns nil when an unrelated local symbol shadows the name.
func externRef(u *ir.Module, name string, sig *ir.Type) *ir.Func {
	if f := u.FuncByName(name); f != nil {
		if f.Sig() == sig && f.Linkage == ir.ExternalLinkage {
			return f
		}
		return nil
	}
	f := ir.NewFunc(name, sig)
	u.AddFunc(f)
	return f
}

// importPair resolves a planned pair's functions, cloning G into F1's unit
// when the pair crosses units. Import happens before any evaluation, so
// clones always capture pristine bodies.
func importPair(units []*ir.Module, pair Pair, resolve func(Ref) *ir.Func) pairState {
	f1, g := resolve(pair.F1), resolve(pair.G)
	if f1 == nil || g == nil || f1.IsDecl() || g.IsDecl() {
		return pairState{skip: true}
	}
	if !pair.CrossTU {
		return pairState{f1: f1, f2: g}
	}
	dstMod, gMod := units[pair.F1.TU], units[pair.G.TU]
	if dstMod.FuncByName(pair.MergedName) != nil || gMod.FuncByName(pair.MergedName) != nil {
		return pairState{skip: true} // planned merged name shadowed locally
	}

	// Map every function G's body references — including G itself for
	// recursion — to an external reference in the destination unit. A
	// shadowing internal symbol or a signature conflict kills the pair.
	vmap := map[ir.Value]ir.Value{}
	ok := true
	g.Insts(func(in *ir.Inst) {
		for _, op := range in.Operands() {
			switch v := op.(type) {
			case *ir.Func:
				if _, done := vmap[v]; done {
					continue
				}
				ref := externRef(dstMod, v.Name(), v.Sig())
				if ref == nil {
					ok = false
					continue
				}
				vmap[v] = ref
			case *ir.Global:
				ok = false // localOnly should have excluded this
			}
		}
	})
	if !ok {
		return pairState{skip: true}
	}

	clone := ir.NewFunc(dstMod.UniqueName("gm.in."+g.Name()), g.Sig())
	clone.Linkage = ir.InternalLinkage
	dstMod.AddFunc(clone)
	for i, p := range g.Params {
		clone.Params[i].SetName(p.Name())
		vmap[p] = clone.Params[i]
	}
	ir.CloneBody(g, clone, vmap)
	return pairState{f1: f1, f2: clone, clone: true}
}

// commitPair installs an accepted pair's merged function (promoting it to
// an external symbol for cross-unit pairs and thunking G in its home unit)
// or rolls back the import of a rejected one.
func commitPair(units []*ir.Module, pair Pair, st *pairState, rep *Report) {
	if st.skip {
		return
	}
	if st.res == nil {
		if st.clone {
			units[pair.F1.TU].RemoveFunc(st.f2)
		}
		return
	}
	res := st.res
	hasID, pmap2 := res.HasFuncID, append([]int(nil), res.ParamMap2...)
	res.Commit() // rewrites F1's callers, thunks or removes F1, removes the clone
	merged := res.Merged
	if pair.CrossTU {
		merged.SetName(pair.MergedName)
		merged.Linkage = ir.ExternalLinkage
		g := units[pair.G.TU].FuncByName(pair.G.Name)
		callee := externRef(units[pair.G.TU], pair.MergedName, merged.Sig())
		g.DropBody()
		core.ForwardThunk(g, callee, hasID, false, pmap2)
	}
	rep.PairsMerged++
	rep.Records = append(rep.Records, MergeRecord{
		Kind: "merge", Merged: merged.Name(),
		F1: qual(pair.F1), F2: qual(pair.G),
		Profit: st.profit,
	})
}
