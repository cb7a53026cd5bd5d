package ir

// InstArena batch-allocates Inst values in slabs, cutting the per-clone
// allocation cost of merge code generation: one speculative merge attempt
// shallow-clones every aligned instruction, and most attempts are discarded
// wholesale. It lives in package ir because instruction construction must
// maintain operand use lists (trackUse is unexported).
//
// Lifecycle contract: Reset recycles the slabs for reuse, so it may only be
// called once every instruction handed out since the previous Reset is dead
// (detached from blocks, operand uses dropped, no remaining users) — the
// state a discarded merged function's body is in after DropBody. Release
// abandons the slabs instead, for bodies that stay live (a committed merge
// keeps its slab-allocated instructions).
type InstArena struct {
	slabs [][]Inst
	si    int // index of the active slab
	used  int // instructions handed out from the active slab
}

// instArenaSlab is the slab granularity; large enough that typical merged
// bodies need a handful of slabs, small enough that a pooled arena holds no
// more than one mostly-empty slab of slack per merge size class.
const instArenaSlab = 256

// NewInst allocates a detached instruction from the arena, equivalent to the
// package-level NewInst.
func (a *InstArena) NewInst(op Opcode, typ *Type, operands ...Value) *Inst {
	if a.si == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Inst, instArenaSlab))
	}
	in := &a.slabs[a.si][a.used]
	a.used++
	if a.used == instArenaSlab {
		a.si++
		a.used = 0
	}
	// Zero any state left by a previous (dead) occupant before reuse.
	*in = Inst{Op: op, typ: typ}
	if len(operands) > 0 {
		in.operands = make([]Value, len(operands))
		for i, v := range operands {
			if v == nil {
				continue
			}
			in.operands[i] = v
			trackUse(v, Use{User: in, Index: i})
		}
	}
	return in
}

// Reset makes every slab available for reuse. Callers must guarantee all
// previously handed-out instructions are dead (see the type comment).
func (a *InstArena) Reset() { a.si, a.used = 0, 0 }

// InstSlab batch-allocates instructions and their operand storage for bodies
// whose instruction count is known up front (the wire decoder reads it from
// the body header, the text parser counts the body's lines before parsing
// it): one exact-size instruction allocation plus a few operand
// slabs per body instead of several allocations per instruction. Unlike
// InstArena a slab is never recycled — decoded bodies stay live — so it
// retains no slack beyond the tail of the last operand slab.
type InstSlab struct {
	insts []Inst
	ops   []Value
}

// instSlabOps caps the operand-slab granularity.
const instSlabOps = 1024

// NewInstSlab returns a slab with room for exactly n instructions.
func NewInstSlab(n int) *InstSlab {
	return &InstSlab{insts: make([]Inst, 0, n)}
}

// NewInst hands out a detached instruction with nops nil operand slots;
// filling a slot with SetOperand tracks the use, exactly as after
// ReserveOperands. Overflowing the slab falls back to the heap, so a
// miscounted caller loses batching, not correctness.
func (s *InstSlab) NewInst(op Opcode, typ *Type, nops int) *Inst {
	var in *Inst
	if len(s.insts) < cap(s.insts) {
		s.insts = s.insts[:len(s.insts)+1]
		in = &s.insts[len(s.insts)-1]
		in.Op, in.typ = op, typ
	} else {
		in = &Inst{Op: op, typ: typ}
	}
	if nops > 0 {
		if len(s.ops) < nops {
			// Size operand slabs from the instructions still to come (about
			// two operands each in practice) so small bodies do not retain a
			// mostly-empty maximum-size slab.
			n := 2 * (cap(s.insts) - len(s.insts))
			if n > instSlabOps {
				n = instSlabOps
			}
			if n < nops {
				n = nops
			}
			s.ops = make([]Value, n)
		}
		// The three-index slice caps the operand storage at nops, so a later
		// AppendOperand reallocates instead of bleeding into the next
		// instruction's slots.
		in.operands = s.ops[:nops:nops]
		s.ops = s.ops[nops:]
	}
	return in
}

// Release abandons the slabs so previously handed-out instructions stay
// live independently of the arena; the arena is empty afterwards.
func (a *InstArena) Release() { a.slabs, a.si, a.used = nil, 0, 0 }
