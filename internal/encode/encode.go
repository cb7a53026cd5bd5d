// Package encode interns linearization entries into compact equivalence-class
// codes so that alignment kernels can compare two entries with one integer
// comparison instead of a structural core.InstructionsEquivalent walk per
// dynamic-programming cell.
//
// The contract, enforced by the cross-check test against internal/core, is
//
//	code(a) == code(b)  ⇔  core.EntriesEquivalent(a, b)
//
// for entries drawn from different functions. Each entry is reduced to a
// canonical byte key mirroring the §III-D relation exactly — labels by kind
// (all normal labels share one class; landing labels by their pad's clause
// list), instructions by opcode, interned result-type identity, operand shape
// (label-ness plus operand type identity) and the per-opcode extras (compare
// predicates, alloca types, GEP index constants, switch case constants,
// landingpad clause lists, invoke unwind-pad clauses) — and identical keys
// intern to identical codes. Entries that §III-D declares never equivalent,
// even to themselves (phis; invokes whose unwind block does not start with a
// landingpad), receive a fresh code no other entry will ever share.
//
// Codes are only meaningful within one process: they intern *ir.Type pointer
// identities, which is safe because interned types are structurally unique
// and codes feed only equality comparisons, never persisted output. The
// alignment they induce therefore depends only on which entries are
// equivalent, never on the code values themselves. Every caller owns its
// table: an exploration run or session keeps one for the module's lifetime,
// and a standalone core.Merge call makes a fresh one.
package encode

import (
	"sync"

	"fmsa/internal/ir"
	"fmsa/internal/linearize"
)

// Encoded is a linearized function together with its equivalence-class codes:
// Codes[i] is the interned class of Seq[i].
type Encoded struct {
	Seq   []linearize.Entry
	Codes []uint32
}

// Interner assigns equivalence-class codes. It is safe for concurrent use;
// all Encode calls against one Interner draw codes from the same table, so
// codes are comparable across functions (the property alignment relies on).
type Interner struct {
	mu      sync.Mutex
	codes   map[string]uint32
	typeIDs map[*ir.Type]uint32
	next    uint32
	scratch []byte
}

// NewInterner returns an empty interning table.
func NewInterner() *Interner {
	return &Interner{
		codes:   make(map[string]uint32),
		typeIDs: make(map[*ir.Type]uint32),
	}
}

// Encode computes the equivalence-class codes of a linearized sequence. The
// returned Encoded aliases seq (it does not copy the entries); Codes is
// freshly allocated.
func (t *Interner) Encode(seq []linearize.Entry) *Encoded {
	codes := make([]uint32, len(seq))
	t.mu.Lock()
	for i, e := range seq {
		codes[i] = t.codeOfLocked(e)
	}
	t.mu.Unlock()
	return &Encoded{Seq: seq, Codes: codes}
}

// fresh allocates a code no key will ever map to again (used for
// never-equivalent entries) — callers hold t.mu.
func (t *Interner) fresh() uint32 {
	t.next++
	return t.next
}

// codeOfLocked builds the canonical key of one entry and interns it. The key
// layout is unambiguous for a fixed leading tag: every variable-length
// section is either length-prefixed (clause lists) or self-delimiting given
// the operand count already in the key (the GEP constant flags).
func (t *Interner) codeOfLocked(e linearize.Entry) uint32 {
	if e.IsLabel() {
		b := e.Block
		if !b.IsLandingBlock() {
			// All normal labels are mutually equivalent (§III-D).
			k := append(t.scratch[:0], 'L')
			t.scratch = k
			return t.intern(k)
		}
		k := append(t.scratch[:0], 'P')
		k = t.appendClauses(k, b.Insts[0].Clauses)
		t.scratch = k
		return t.intern(k)
	}

	in := e.Inst
	if in.Op == ir.OpPhi {
		// Phis are never equivalent, not even to themselves.
		return t.fresh()
	}
	if in.Op == ir.OpInvoke {
		lp := in.InvokeUnwind().Insts
		if len(lp) == 0 || lp[0].Op != ir.OpLandingPad {
			// landingPadsIdentical can never hold for this invoke, so it is
			// equivalent to nothing — itself included.
			return t.fresh()
		}
	}

	k := append(t.scratch[:0], 'I', byte(in.Op))
	k = t.appendType(k, in.Type())
	n := in.NumOperands()
	k = appendUint32(k, uint32(n))
	for i := 0; i < n; i++ {
		op := in.Operand(i)
		if _, isLabel := op.(*ir.Block); isLabel {
			k = append(k, 'B')
		} else {
			k = append(k, 'V')
			k = t.appendType(k, op.Type())
		}
	}
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp:
		k = append(k, byte(in.Pred))
	case ir.OpAlloca:
		k = t.appendType(k, in.Alloc)
	case ir.OpGEP:
		// Constant indices must be identical; their types are already in the
		// operand section above, so only const-ness and value remain.
		for i := 1; i < n; i++ {
			if c, ok := in.Operand(i).(*ir.ConstInt); ok {
				k = append(k, 'C')
				k = appendUint64(k, uint64(c.V))
			} else {
				k = append(k, 'x')
			}
		}
	case ir.OpSwitch:
		for i := 2; i < n; i += 2 {
			c := in.Operand(i).(*ir.ConstInt)
			k = appendUint64(k, uint64(c.V))
		}
	case ir.OpLandingPad:
		k = t.appendClauses(k, in.Clauses)
	case ir.OpInvoke:
		k = t.appendClauses(k, in.InvokeUnwind().Insts[0].Clauses)
	}
	t.scratch = k
	return t.intern(k)
}

// intern maps a finished key to its code, assigning the next code on first
// sight — callers hold t.mu. The map stores its own copy of the key bytes
// (string conversion), so the scratch buffer stays reusable.
func (t *Interner) intern(k []byte) uint32 {
	if c, ok := t.codes[string(k)]; ok {
		return c
	}
	c := t.fresh()
	t.codes[string(k)] = c
	return c
}

// appendType appends the interned id of a type. Types are interned in
// internal/ir (pointer equality ⇔ structural equality), so the pointer is the
// identity; the table just renames it to a stable small integer.
func (t *Interner) appendType(k []byte, ty *ir.Type) []byte {
	id, ok := t.typeIDs[ty]
	if !ok {
		id = uint32(len(t.typeIDs)) + 1
		t.typeIDs[ty] = id
	}
	return appendUint32(k, id)
}

// appendClauses appends a length-prefixed clause list.
func (t *Interner) appendClauses(k []byte, clauses []string) []byte {
	k = appendUint32(k, uint32(len(clauses)))
	for _, c := range clauses {
		k = appendUint32(k, uint32(len(c)))
		k = append(k, c...)
	}
	return k
}

func appendUint32(k []byte, v uint32) []byte {
	return append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendUint64(k []byte, v uint64) []byte {
	return append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
