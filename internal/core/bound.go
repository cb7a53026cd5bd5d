package core

// Pre-codegen profitability bounding (the estimate-before-materialize
// discipline): an admissible upper bound on the §IV-A merge profit computed
// directly from the alignment and the two linearizations, before any merged
// code exists. When the best case cannot clear the profit threshold, Merge
// skips code generation entirely — the dominant cost of exploration, since
// only a small fraction of aligned pairs turn out profitable.
//
// Admissibility argument. Exact profit is
//
//	Δ = c(f1) + c(f2) − c(merged) − ε
//
// so an upper bound on Δ needs exact c(f1)+c(f2) (memoized, see
// FuncMemo) and provable lower bounds on c(merged) and ε:
//
//   - c(merged) ≥ FuncOverhead + Σ per-column floors. Every aligned column
//     materializes in the merged body: a matched instruction column is
//     emitted once (a shallow clone of one side, same opcode/type/operand
//     count, so its InstSize equals the sources'; min of the two sides is
//     taken defensively), a gap instruction column is emitted once at its
//     source's size, and label columns cost nothing. Code generation only
//     ever ADDS to that floor — func_id diamonds, operand selects, dispatch
//     blocks, demotion allocas/stores/loads, return-type casts, the entry
//     dispatch. The cleanup pass (SimplifyCFG) can DELETE instructions, so
//     every form it can remove floors at zero (instFloor): unconditional
//     branches (branch forwarding and straight-line merging delete exactly
//     those) and landingpads (dispatch-block hoisting replaces two pad
//     clones with one; a matched pad in diverged blocks is demoted to two
//     gap pads and the hoist then removes both). The one exception is the
//     branch floor (brFloors.gapFloor): a gap column `A: br B` counts in
//     full when B is a non-landing block with at least two distinct
//     predecessors, each keeping two instructions besides a landingpad,
//     and no matched column lies in B or any of its predecessors — such a
//     branch is cloned 1:1 into a block that is never trivial, targeting
//     a block that never has a single predecessor, so neither cleanup
//     rewrite can reach it (the full argument is on gapFloor). Huge bodies
//     keep most of their branches, and without this floor their bound
//     overshoots by thousands of bytes. Conditional branches and
//     switches count in full — SimplifyCFG only folds them over a constant
//     condition, and constant-condition pairs are the one cascade hazard
//     (folding a cloned br/switch on a ConstInt makes whole cloned blocks
//     unreachable and deletable), so any such instruction in either
//     sequence disables bounding for the pair entirely. On top of the
//     column floors, matched columns whose operands hold differing fixed
//     values (constants, globals, function references — values the
//     merger's maps never remap) force an operand select each, taking the
//     cheaper pairing for two-operand commutative instructions
//     (guaranteedSelects mirrors fillMatched's reordering).
//   - ε ≥ Σ per-side floors. The merged function keeps every f1 parameter
//     and appends each f2 parameter it cannot reuse an equal-typed slot
//     for, so its arity is at least the per-type multiset maximum of the
//     two lists (mergedParamFloor mirrors buildParamPlan), plus the
//     func_id slot whenever any gap column or guaranteed select keeps the
//     func_id parameter referenced. Call size is monotone in argument
//     count on both targets, so a synthetic call with that floor arity
//     lower-bounds the rewritten call size; per-site growth is clamped at
//     zero exactly like the exact model. The thunk floor applies under the
//     same linkage/address-taken condition as the exact model and omits
//     only the non-negative return-cast term.
//
// Every floor is ≤ its exact counterpart, so Bound ≥ Δ: a pruned pair
// (Bound ≤ MinProfit) is a pair the exact model would also reject. The
// admissibility property tests here and explore's
// TestBoundDecisionInvariance corpus audit assert exactly that, pair by
// pair.

import (
	"errors"

	"fmsa/internal/align"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/tti"
)

// ErrHopeless reports that the pre-codegen profitability bound proved the
// merge cannot clear the configured profit threshold; code generation was
// skipped and no Result exists. It is a rejection, not a failure: the exact
// cost model would have rejected the pair too.
var ErrHopeless = errors.New("core: profitability bound rules out this merge")

// PruneSpec enables pre-codegen profitability bounding in Merge. The caller
// supplies the same cost-model inputs the exact profit evaluation will use
// (target and caller snapshots), so the bound and the exact model agree on
// every shared term.
type PruneSpec struct {
	// Target is the code-size cost model.
	Target tti.Target
	// S1 and S2 are the caller snapshots of f1 and f2 (see CallerStats).
	S1, S2 CallerStats
	// MinProfit is the pruning threshold: Merge returns ErrHopeless when
	// the bound proves profit ≤ MinProfit. The exploration pipeline uses 0,
	// matching its `profit <= 0 → discard` rejection.
	MinProfit int
}

// boundCtx carries the alignment correspondence needed to decide operand
// divergence exactly: two original values resolve to the same merged value
// iff they were aligned with each other (matched instruction columns, and
// labels to the same merged block) or assigned the same parameter slot.
type boundCtx struct {
	matchedI map[*ir.Inst]*ir.Inst   // f1 inst -> f2 inst matched with it
	matchedB map[*ir.Block]*ir.Block // f1 block -> f2 block whose labels matched
	plan     *paramPlan
	f1, f2   *ir.Func
}

// profitUpperBound computes the admissible profit bound for merging the
// functions of e1 and e2 under the given alignment and parameter plan, with
// the target-wide sizes from memo (nil measures them). ok is false when
// bounding is disabled for the pair (constant-condition branch hazard); the
// caller must then proceed to code generation.
func profitUpperBound(e1, e2 *funcEntry, steps []align.Step, plan *paramPlan,
	spec *PruneSpec, memo *FuncMemo) (bound int, ok bool) {

	f1, f2, seq1, seq2 := e1.f, e2.f, e1.enc.Seq, e2.enc.Seq
	if hasConstBranch(seq1) || hasConstBranch(seq2) {
		return 0, false
	}
	t := spec.Target
	before := e1.funcSize(t) + e2.funcSize(t)

	// First pass: record which columns were aligned with each other, so
	// operand divergence (select and dispatch-block floors) is decided the
	// same way the merger's value maps will decide it, and which blocks
	// hold a matched column (the branch floor's per-pair condition). Blocks
	// are numbered by label order in their sequence: every entry appears in
	// exactly one step, in sequence order, so counting label steps per side
	// yields the block of each column without a lookup.
	ctx := &boundCtx{
		matchedI: make(map[*ir.Inst]*ir.Inst),
		matchedB: make(map[*ir.Block]*ir.Block),
		plan:     plan,
		f1:       f1, f2: f2,
	}
	fl1, fl2 := e1.brFloors(), e2.brFloors()
	var buf1, buf2 [4]uint64
	touched1, touched2 := fl1.touchedSet(buf1[:0]), fl2.touchedSet(buf2[:0])
	ord1, ord2 := -1, -1
	for _, s := range steps {
		switch s.Op {
		case align.OpMatch:
			if e1 := seq1[s.I]; e1.IsLabel() {
				ord1++
				ord2++
				ctx.matchedB[e1.Block] = seq2[s.J].Block
			} else {
				ctx.matchedI[e1.Inst] = seq2[s.J].Inst
			}
			touched1.add(ord1)
			touched2.add(ord2)
		case align.OpGapA:
			if seq1[s.I].IsLabel() {
				ord1++
			}
		case align.OpGapB:
			if seq2[s.J].IsLabel() {
				ord2++
			}
		}
	}

	// Lower bound on c(merged): per-column floors over the alignment, plus
	// floors on the scaffolding code generation is forced to emit — operand
	// selects, dispatch blocks for diverging branch targets, and func_id
	// diamond branches. The diamond count replays passOne's shared/diverged
	// block state machine, which is a pure function of the step sequence:
	// entering a gap run from a shared block splits it with a conditional
	// branch on func_id, and conditional branches survive cleanup (func_id
	// is never constant).
	mergedLB := t.FuncOverhead()
	sz := memo.synthSizes(t)
	condBr := sz.condBr
	gapSteps, selects := 0, 0
	var dispatch map[[2]*ir.Block]bool // distinct diverging target pairs
	cur1, cur2, next := 0, 0, 0        // block ids; equal ⇔ sides share a block
	ord1, ord2 = -1, -1
	for _, s := range steps {
		switch s.Op {
		case align.OpMatch:
			e1 := seq1[s.I]
			if e1.IsLabel() {
				ord1++
				ord2++
				next++
				cur1, cur2 = next, next
				continue
			}
			e2 := seq2[s.J]
			mergedLB += min(instFloor(t, e1.Inst), instFloor(t, e2.Inst))
			selects += ctx.forcedSelects(e1.Inst, e2.Inst)
			dispatch = ctx.divergingTargets(e1.Inst, e2.Inst, dispatch)
			if e1.Inst.Op == ir.OpLandingPad && cur1 != cur2 {
				continue // demoted to a gap pair; both sides stay diverged
			}
			if cur1 != cur2 {
				// Reconverge into a fresh shared block (unconditional
				// branches only — no floor contribution).
				next++
				cur1, cur2 = next, next
			}
		case align.OpGapA:
			gapSteps++
			if e := seq1[s.I]; e.IsLabel() {
				ord1++
				next++
				cur1 = next
			} else {
				mergedLB += fl1.gapFloor(t, e.Inst, ord1, touched1)
				if cur1 == cur2 {
					mergedLB += condBr // func_id diamond split
					cur1, cur2 = next+1, next+2
					next += 2
				}
			}
		case align.OpGapB:
			gapSteps++
			if e := seq2[s.J]; e.IsLabel() {
				ord2++
				next++
				cur2 = next
			} else {
				mergedLB += fl2.gapFloor(t, e.Inst, ord2, touched2)
				if cur1 == cur2 {
					mergedLB += condBr // func_id diamond split
					cur1, cur2 = next+1, next+2
					next += 2
				}
			}
		}
	}
	if selects > 0 {
		mergedLB += selects * sz.sel
	}
	// Each distinct diverging target pair materializes one memoized
	// dispatch block holding a conditional branch on func_id.
	mergedLB += len(dispatch) * condBr
	// The entry block's dispatch branch is conditional unless the two
	// original entry labels were matched with each other.
	if ctx.matchedB[f1.Entry()] != f2.Entry() {
		mergedLB += condBr
	}

	// Lower bound on ε: the merged arity floor gives a floor on the
	// rewritten call size (call size is monotone in argument count). The
	// parameter plan is exact for the non-func_id slots; the func_id slot
	// counts whenever any gap column, operand select or dispatch block
	// keeps it referenced.
	lbArity := len(plan.types) - 1
	if gapSteps > 0 || selects > 0 || len(dispatch) > 0 {
		lbArity++
	}
	callLB := memo.arityCallSize(t, lbArity)
	epsLB := deltaLowerBound(t, e1, spec.S1, callLB, sz.ret) +
		deltaLowerBound(t, e2, spec.S2, callLB, sz.ret)

	return before - mergedLB - epsLB, true
}

// instFloor is the size an aligned instruction column provably contributes
// to the merged body. Unconditional branches floor at zero — block
// forwarding and straight-line merging delete exactly those; gapFloor
// raises the floor of the gap-column branches cleanup provably keeps — and
// so do landingpads (dispatch-block hoisting replaces two pad clones with one; a
// matched pad in diverged blocks is demoted to two gap pads and the hoist
// then removes both). Conditional branches and switches survive cleanup in
// full: SimplifyCFG only folds them over a constant condition, and
// constant-condition pairs bail out of bounding before any floor is taken.
func instFloor(t tti.Target, in *ir.Inst) int {
	switch in.Op {
	case ir.OpLandingPad:
		return 0
	case ir.OpBr:
		if in.NumOperands() == 1 {
			return 0
		}
	}
	return t.InstSize(in)
}

// brFloors holds the static half of one function's branch floor: for every
// block whose unconditional branch cleanup provably keeps once the per-pair
// condition holds, the blocks that condition inspects. Blocks are numbered
// by label order in the function's linearization (ordinals); unreachable
// blocks have none — they are never linearized, so never cloned.
//
// A block A with terminator `br B` is a candidate when B is a non-landing
// block with at least two distinct linearized predecessors, each keeping at
// least two instructions that are not a landingpad — A among them, so A
// keeps two as well. The per-pair condition is that none of B and its
// predecessors holds a matched column; see gapFloor.
type brFloors struct {
	// target[a] is the ordinal of candidate block a's branch target, or -1.
	target []int32
	// guards[start[b]:start[b+1]] lists the ordinals of target b and its
	// distinct predecessors; empty when b cannot anchor the floor.
	start, guards []int32
}

// noBrFloors is the shared entry of a function without candidates: every
// unconditional branch floors at zero, as instFloor prices it.
var noBrFloors = &brFloors{}

// keptLen counts the instructions of b that cleanup can never remove: all of
// them but a landingpad, which dispatch-block hoisting may take out of the
// block.
func keptLen(b *ir.Block) int {
	if b.IsLandingBlock() {
		return len(b.Insts) - 1
	}
	return len(b.Insts)
}

// buildBrFloors computes a function's candidates from its linearization.
func buildBrFloors(seq []linearize.Entry) *brFloors {
	ord := make(map[*ir.Block]int32)
	var labels []*ir.Block // block of each ordinal
	for _, e := range seq {
		if e.IsLabel() {
			ord[e.Block] = int32(len(labels))
			labels = append(labels, e.Block)
		}
	}
	n := len(labels)
	fl := &brFloors{start: make([]int32, n+1)}
	seen := make([]int32, n) // stamp k+1: predecessor already listed for target k
	for k, b := range labels {
		fl.start[k] = int32(len(fl.guards))
		if b.IsLandingBlock() {
			continue
		}
		mark := len(fl.guards)
		fl.guards = append(fl.guards, int32(k))
		preds, ok := 0, true
		for _, u := range b.Uses() { // one entry per edge, as in Preds
			p := u.User.Parent()
			if !u.User.IsTerminator() || p == nil {
				continue
			}
			op, reach := ord[p]
			if !reach {
				continue // unreachable: never cloned, so never an edge
			}
			if keptLen(p) < 2 {
				ok = false // forwarding could delete this edge's block
				break
			}
			if seen[op] != int32(k+1) {
				seen[op] = int32(k + 1)
				preds++
				if op != int32(k) {
					fl.guards = append(fl.guards, op)
				}
			}
		}
		if !ok || preds < 2 {
			fl.guards = fl.guards[:mark]
		}
	}
	fl.start[n] = int32(len(fl.guards))

	fl.target = make([]int32, n)
	found := false
	for k, a := range labels {
		fl.target[k] = -1
		t := a.Terminator()
		if t == nil || t.Op != ir.OpBr || t.NumOperands() != 1 {
			continue
		}
		if b, ok := ord[t.Operand(0).(*ir.Block)]; ok && fl.start[b] < fl.start[b+1] {
			fl.target[k] = b
			found = true
		}
	}
	if !found {
		return noBrFloors
	}
	return fl
}

// blockSet is a bitset over block ordinals; a nil set ignores additions.
type blockSet []uint64

func (s blockSet) add(k int) {
	if s != nil {
		s[k>>6] |= 1 << (k & 63)
	}
}

func (s blockSet) has(k int32) bool { return s[k>>6]&(1<<(k&63)) != 0 }

// touchedSet returns an empty set over fl's blocks backed by buf when it
// fits, or nil when fl has no candidates (the pair never consults it).
func (fl *brFloors) touchedSet(buf []uint64) blockSet {
	if fl.target == nil {
		return nil
	}
	words := (len(fl.target) + 63) / 64
	if words > cap(buf) {
		return make(blockSet, words)
	}
	return blockSet(buf[:words])
}

// gapFloor is the floor of a gap instruction column in block ordinal a of
// fl's function, given the pair's matched-column blocks: instFloor, except
// that a candidate's unconditional branch counts in full when no matched
// column lies in its target or any of the target's predecessors.
//
// Why the branch survives. Let A: `br B` meet the candidate conditions
// with B and every predecessor of B (A included) free of matched columns.
// Every column of those blocks is a gap column of one side, so passOne
// clones each of them 1:1 into a block of its own: a gap label opens a
// fresh block that only its own side's columns enter (the other side's
// cursor is elsewhere), no diamond splits it (the sides already differ), no
// reconnect branch enters it (its own terminator ends it), and selects are
// only inserted before matched instructions. Value maps are injective and
// B's clone B' is reached through side-1 (say) resolution only, so the
// edges into B' are exactly the clones of B's edges from its linearized
// predecessors: only terminators take block operands, a dispatch block
// would need a matched terminator in a predecessor, and the entry dispatch
// only adds an edge. Afterwards, demoteNonDominated only adds instructions,
// except that it may route an invoke's normal edge to B' through a fresh
// [store, br B'] block — still one distinct predecessor per invoke, and
// never trivial. Dispatch-block hoisting removes a landingpad at most,
// which keptLen already discounts.
//
// SimplifyCFG (constant folding is excluded by the bail) then deletes an
// unconditional branch in only two ways: forwarding a block holding
// nothing else (len(Insts) == 1), and straight-line merging of its target
// into it (len(Preds()) == 1 && NumUses() == 1). Each predecessor
// terminator of B' lives in a block with at least two other-than-pad
// instructions; merging only ever moves whole blocks into others and
// forwarding only deletes single-instruction blocks, so none of these
// terminators is ever deleted, and they stay in distinct blocks (a block
// has one terminator). Forwarding B' itself (when B is a lone branch)
// rewrites all of them to the same new target together. Hence A's branch
// always targets a block with at least two distinct predecessors — at
// least two Preds() entries, since Preds() lists one per edge — so it is
// never straight-line merged away, and it never sits in a trivial block. Self-loops
// change nothing: B among its own predecessors counts once, and a trivial
// self-loop fails the instruction count. Reachability is preserved (the
// func_id-true paths run through the clones), so removeUnreachable never
// takes them either.
func (fl *brFloors) gapFloor(t tti.Target, in *ir.Inst, a int, touched blockSet) int {
	if in.Op != ir.OpBr || in.NumOperands() != 1 || touched == nil {
		return instFloor(t, in)
	}
	b := fl.target[a]
	if b < 0 {
		return 0
	}
	for _, g := range fl.guards[fl.start[b]:fl.start[b+1]] {
		if touched.has(g) {
			return 0
		}
	}
	return t.InstSize(in)
}

// diverges reports whether a (a side-1 operand) and b (a side-2 operand)
// provably resolve to different merged values, forcing fillMatched to emit
// an operand select. It mirrors the merger's resolve: instructions map to
// their clones (shared iff matched with each other), parameters to their
// plan slots, and constants, globals and function references to
// themselves. Undecidable pairs return false — the floor stays admissible.
func (c *boundCtx) diverges(a, b ir.Value) bool {
	if a == nil || b == nil {
		return false
	}
	switch x := a.(type) {
	case *ir.Block:
		return false // label operands go through dispatch blocks, not selects
	case *ir.Inst:
		y, ok := b.(*ir.Inst)
		return !ok || c.matchedI[x] != y
	case *ir.Param:
		if x.Parent() != c.f1 {
			return false // foreign param: out of resolve's model
		}
		switch y := b.(type) {
		case *ir.Block:
			return false
		case *ir.Param:
			if y.Parent() != c.f2 {
				return false
			}
			return c.plan.map1[x.Index] != c.plan.map2[y.Index]
		default:
			return true // a parameter slot never equals a clone or constant
		}
	default:
		// Fixed values: constants, globals and function references.
		switch b.(type) {
		case *ir.Block:
			return false
		case *ir.Inst, *ir.Param:
			return true
		default:
			return a != b && !ir.ConstantsEqual(a, b)
		}
	}
}

// forcedSelects counts the operand selects code generation must emit for a
// matched instruction column: operand positions whose sides provably
// diverge. For two-operand commutative instructions the merger may swap
// one side to minimise divergence, so the floor takes the cheaper pairing.
func (c *boundCtx) forcedSelects(i1, i2 *ir.Inst) int {
	ops1, ops2 := i1.Operands(), i2.Operands()
	if i1.Op.IsCommutative() && len(ops1) == 2 && len(ops2) == 2 {
		direct, swapped := 0, 0
		if c.diverges(ops1[0], ops2[0]) {
			direct++
		}
		if c.diverges(ops1[1], ops2[1]) {
			direct++
		}
		if c.diverges(ops1[0], ops2[1]) {
			swapped++
		}
		if c.diverges(ops1[1], ops2[0]) {
			swapped++
		}
		return min(direct, swapped)
	}
	n := 0
	for k := range ops1 {
		if k < len(ops2) && c.diverges(ops1[k], ops2[k]) {
			n++
		}
	}
	return n
}

// divergingTargets collects the distinct diverging label-operand pairs of a
// matched column into set (allocated lazily). Each pair the merger cannot
// share becomes one memoized dispatch block (dispatchBlock); the value maps
// are injective on blocks, so distinct original pairs stay distinct merged
// pairs.
func (c *boundCtx) divergingTargets(i1, i2 *ir.Inst, set map[[2]*ir.Block]bool) map[[2]*ir.Block]bool {
	ops1, ops2 := i1.Operands(), i2.Operands()
	for k := range ops1 {
		if k >= len(ops2) {
			break
		}
		b1, ok1 := ops1[k].(*ir.Block)
		b2, ok2 := ops2[k].(*ir.Block)
		if !ok1 || !ok2 || c.matchedB[b1] == b2 {
			continue
		}
		if set == nil {
			set = make(map[[2]*ir.Block]bool, 4)
		}
		set[[2]*ir.Block{b1, b2}] = true
	}
	return set
}

// hasConstBranch reports whether the sequence contains a conditional branch
// or switch on an integer constant — the trigger of SimplifyCFG's
// constant-branch folding, whose unreachable-block cascade can delete
// arbitrarily many cloned instructions.
func hasConstBranch(seq []linearize.Entry) bool {
	for _, e := range seq {
		if e.IsLabel() {
			continue
		}
		switch e.Inst.Op {
		case ir.OpBr:
			if e.Inst.NumOperands() == 3 {
				if _, ok := e.Inst.Operand(0).(*ir.ConstInt); ok {
					return true
				}
			}
		case ir.OpSwitch:
			if _, ok := e.Inst.Operand(0).(*ir.ConstInt); ok {
				return true
			}
		}
	}
	return false
}

// deltaLowerBound is the floor of delta(f, merged) for e's function f:
// per-call-site growth against the arity-floor call size, plus the thunk
// floor (without the non-negative return-cast term) when f cannot be
// deleted outright. Mirrors Result.delta term for term.
func deltaLowerBound(t tti.Target, e *funcEntry, s CallerStats, callLB, ret int) int {
	lb := 0
	if s.Callers > 0 {
		if growth := callLB - e.callSize(t); growth > 0 {
			lb += growth * s.Callers
		}
	}
	if e.f.Linkage == ir.InternalLinkage && !s.AddressTaken {
		return lb
	}
	return lb + t.FuncOverhead() + callLB + ret
}
