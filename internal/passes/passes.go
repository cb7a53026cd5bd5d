// Package passes provides the supporting transformations around function
// merging: φ-demotion (the paper's required pre-processing), register
// demotion, dead-code elimination, CFG simplification and dead-function
// stripping. Together they stand in for the "-Os"-style pipeline the paper
// wraps around its optimization (§III-A, Fig. 9).
package passes

import "fmsa/internal/ir"

// DemotePhis rewrites every φ-function in f into memory operations: an
// entry-block alloca, a store at the end of each incoming predecessor, and
// a load at the φ's position. The paper's merger assumes this normalization
// ("our current implementation assumes that the input functions have all
// their φ-functions demoted to memory operations", §III-A).
func DemotePhis(f *ir.Func) {
	if f.IsDecl() {
		return
	}
	var phis []*ir.Inst
	f.Insts(func(in *ir.Inst) {
		if in.Op == ir.OpPhi {
			phis = append(phis, in)
		}
	})
	if len(phis) == 0 {
		return
	}
	entry := f.Entry()
	anchor := entry.Insts[0]
	for _, phi := range phis {
		slot := ir.NewInst(ir.OpAlloca, ir.PointerTo(phi.Type()))
		slot.Alloc = phi.Type()
		entry.InsertBefore(slot, anchor)

		for i := 0; i < phi.NumPhiIncoming(); i++ {
			v, pred := phi.PhiIncoming(i)
			st := ir.NewInst(ir.OpStore, ir.Void(), v, slot)
			pred.InsertBefore(st, pred.Terminator())
		}

		ld := ir.NewInst(ir.OpLoad, phi.Type(), slot)
		phi.Parent().InsertBefore(ld, phi)
		ir.ReplaceAllUsesWith(phi, ld)
		phi.RemoveFromParent()
	}
}

// DemotePhisModule runs DemotePhis on every definition.
func DemotePhisModule(m *ir.Module) {
	for _, f := range m.Funcs {
		DemotePhis(f)
	}
}

// DCE removes instructions whose results are unused and whose execution has
// no side effects, iterating to a fixpoint. It returns the number of
// instructions removed.
func DCE(f *ir.Func) int {
	removed := 0
	for {
		var dead []*ir.Inst
		f.Insts(func(in *ir.Inst) {
			if in.Op.HasSideEffects() || in.IsTerminator() {
				return
			}
			if in.NumUses() == 0 {
				dead = append(dead, in)
			}
		})
		if len(dead) == 0 {
			return removed
		}
		for _, in := range dead {
			in.RemoveFromParent()
		}
		removed += len(dead)
	}
}

// DCEModule runs DCE on every definition and returns the total removed.
func DCEModule(m *ir.Module) int {
	total := 0
	for _, f := range m.Funcs {
		total += DCE(f)
	}
	return total
}

// SimplifyCFG performs lightweight control-flow cleanups on f:
//
//   - conditional branches and switches on constants become direct branches;
//   - unreachable blocks are deleted;
//   - blocks containing only an unconditional branch are forwarded;
//   - straight-line block pairs (single successor / single predecessor) are
//     merged.
//
// Functions containing φ-instructions only receive the unreachable-block
// cleanup (the other rewrites would need φ updates).
func SimplifyCFG(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	changed := false
	hasPhi := false
	f.Insts(func(in *ir.Inst) {
		if in.Op == ir.OpPhi {
			hasPhi = true
		}
	})
	for {
		any := false
		if !hasPhi {
			any = foldConstantBranches(f) || any
		}
		any = removeUnreachable(f) || any
		if !hasPhi {
			any = forwardTrivialBlocks(f) || any
			any = mergeStraightLine(f) || any
		}
		if !any {
			return changed
		}
		changed = true
	}
}

// SimplifyCFGModule runs SimplifyCFG over every definition.
func SimplifyCFGModule(m *ir.Module) bool {
	changed := false
	for _, f := range m.Funcs {
		changed = SimplifyCFG(f) || changed
	}
	return changed
}

func foldConstantBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch {
		case t.Op == ir.OpBr && t.NumOperands() == 3:
			c, ok := t.Operand(0).(*ir.ConstInt)
			if !ok {
				continue
			}
			dest := t.Operand(2)
			if c.V != 0 {
				dest = t.Operand(1)
			}
			nb := ir.NewInst(ir.OpBr, ir.Void(), dest)
			t.RemoveFromParent()
			b.Append(nb)
			changed = true
		case t.Op == ir.OpSwitch:
			c, ok := t.Operand(0).(*ir.ConstInt)
			if !ok {
				continue
			}
			dest := t.Operand(1)
			for i := 2; i < t.NumOperands(); i += 2 {
				cv := t.Operand(i).(*ir.ConstInt)
				if cv.V == c.V {
					dest = t.Operand(i + 1)
					break
				}
			}
			nb := ir.NewInst(ir.OpBr, ir.Void(), dest)
			t.RemoveFromParent()
			b.Append(nb)
			changed = true
		}
	}
	return changed
}

func removeUnreachable(f *ir.Func) bool {
	reach := map[*ir.Block]bool{}
	var mark func(b *ir.Block)
	mark = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Successors() {
			mark(s)
		}
	}
	mark(f.Entry())
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !reach[b] {
			dead = append(dead, b)
		}
	}
	for _, b := range dead {
		b.RemoveFromParent()
	}
	return len(dead) > 0
}

// forwardTrivialBlocks redirects edges through blocks that contain only an
// unconditional branch. The entry block and landing blocks are kept.
func forwardTrivialBlocks(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() || b.IsLandingBlock() {
			continue
		}
		if len(b.Insts) != 1 {
			continue
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr || t.NumOperands() != 1 {
			continue
		}
		target := t.Operand(0).(*ir.Block)
		if target == b {
			continue // infinite self-loop; leave alone
		}
		// Redirect all branch uses of b to target.
		ir.RewriteUses(b, func(u ir.Use) ir.Value {
			if u.User == t {
				return nil
			}
			return target
		})
		changed = changed || true
	}
	if changed {
		removeUnreachable(f)
	}
	return changed
}

// mergeStraightLine merges b into its unique predecessor when that
// predecessor branches unconditionally and exclusively to b.
func mergeStraightLine(f *ir.Func) bool {
	changed := false
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		if b.Parent() == nil || b == f.Entry() || b.IsLandingBlock() {
			continue
		}
		preds := b.Preds()
		if len(preds) != 1 {
			continue
		}
		p := preds[0]
		if p == b {
			continue
		}
		pt := p.Terminator()
		if pt == nil || pt.Op != ir.OpBr || pt.NumOperands() != 1 {
			continue
		}
		if b.NumUses() != 1 {
			continue // referenced elsewhere (e.g. as a dispatch target)
		}
		pt.RemoveFromParent()
		// Move b's instructions into p.
		insts := append([]*ir.Inst(nil), b.Insts...)
		for _, in := range insts {
			moveInst(in, b, p)
		}
		b.RemoveFromParent()
		changed = true
	}
	return changed
}

// moveInst moves in from its current block to the end of dst, preserving
// operands and uses.
func moveInst(in *ir.Inst, src, dst *ir.Block) {
	for i, x := range src.Insts {
		if x == in {
			src.Insts = append(src.Insts[:i], src.Insts[i+1:]...)
			break
		}
	}
	in.ForceSetParent(nil)
	dst.Append(in)
}

// StripDeadFunctions removes internal functions that are never referenced.
// It returns the number of functions removed.
func StripDeadFunctions(m *ir.Module) int {
	removed := 0
	for {
		var dead []*ir.Func
		for _, f := range m.Funcs {
			if f.Linkage == ir.InternalLinkage && f.NumUses() == 0 && !f.IsDecl() {
				dead = append(dead, f)
			}
		}
		if len(dead) == 0 {
			return removed
		}
		for _, f := range dead {
			m.RemoveFunc(f)
		}
		removed += len(dead)
	}
}
