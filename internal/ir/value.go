package ir

import "strconv"

// Value is anything that can appear as an instruction operand: parameters,
// instructions, basic blocks (as labels), functions, globals and constants.
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ident returns the reference form of the value as it appears in
	// operand position, e.g. "%x", "@f", "42", "label %bb1".
	Ident() string
}

// Named is implemented by values that carry an assignable name.
type Named interface {
	Value
	Name() string
	SetName(string)
}

// Use records a single use of a value: the using instruction and the operand
// index within it.
type Use struct {
	User  *Inst
	Index int
}

// usable is embedded by definitions that track their uses (parameters,
// instructions, blocks, functions, globals). Constants are interned/shared
// and do not track uses.
type usable struct {
	uses []Use
}

func (u *usable) addUse(use Use) { u.uses = append(u.uses, use) }

func (u *usable) removeUse(use Use) {
	for i, x := range u.uses {
		if x == use {
			// Removal preserves the order of the remaining uses: passes
			// (caller rewriting, thunk elision) iterate use lists, and the
			// exploration framework requires identical iteration order no
			// matter how many speculative merges were attempted and
			// discarded in between.
			u.uses = append(u.uses[:i], u.uses[i+1:]...)
			return
		}
	}
}

// dropUses removes moved — a subsequence of the use list, in list order —
// in one order-preserving compaction pass: the result equals removing each
// entry with removeUse in turn, at O(len) total instead of O(len) per entry.
// Entries appended after the subsequence was taken (a rewrite that re-adds
// a use of this same value) sit behind every match, so they survive.
func (u *usable) dropUses(moved []Use) {
	if len(moved) == 0 {
		return
	}
	w, k := 0, 0
	for _, x := range u.uses {
		if k < len(moved) && x == moved[k] {
			k++
			continue
		}
		u.uses[w] = x
		w++
	}
	clear(u.uses[w:])
	u.uses = u.uses[:w]
}

// Uses returns the active uses of the value. The returned slice is owned by
// the value and must not be mutated.
func (u *usable) Uses() []Use { return u.uses }

// NumUses returns the number of recorded uses.
func (u *usable) NumUses() int { return len(u.uses) }

func (u *usable) presizeUses(s []Use) {
	if u.uses == nil {
		u.uses = s
	}
}

// PresizeUses carves exact-capacity use-list storage for v out of buf and
// returns the remainder. Callers that can count (or estimate) how many uses
// a fresh definition will receive — the wire decoder pre-scans a body's
// operand references — batch every use list of a body into one allocation
// instead of growing each list by doubling. The count may be low: the
// three-index slice caps capacity, so an overflowing append reallocates
// rather than clobbering the next definition's storage. No-op for values
// that do not track uses or already have uses recorded.
func PresizeUses(v Value, n int, buf []Use) []Use {
	if n <= 0 || n > len(buf) {
		return buf
	}
	if t, ok := v.(interface{ presizeUses([]Use) }); ok {
		t.presizeUses(buf[0:0:n])
		return buf[n:]
	}
	return buf
}

// userTracked is the internal interface for definitions with use lists.
type userTracked interface {
	Value
	addUse(Use)
	removeUse(Use)
	dropUses([]Use)
	Uses() []Use
}

// trackUse registers u as a use of v if v tracks uses.
func trackUse(v Value, u Use) {
	if t, ok := v.(userTracked); ok {
		t.addUse(u)
	}
}

// untrackUse removes u from v's use list if v tracks uses.
func untrackUse(v Value, u Use) {
	if t, ok := v.(userTracked); ok {
		t.removeUse(u)
	}
}

// ReplaceAllUsesWith rewrites every use of old to refer to new instead.
// old and new must have the same type unless new is a constant of a
// bitcast-compatible type.
func ReplaceAllUsesWith(old userTracked, newV Value) {
	RewriteUses(old, func(Use) Value { return newV })
}

// RewriteUses visits the uses of old in use-list order and points each one
// at to(u) instead; a nil result leaves that use in place. to may create
// instructions (their operand uses are tracked as usual) but must not
// otherwise change old's use list. The moved uses are appended to their new
// values' lists in visit order and leave old's list in one order-preserving
// compaction pass, so every use list ends up exactly as a loop of SetOperand
// calls would leave it, at O(n) for n uses instead of that loop's O(n)
// search and tail shift per use.
func RewriteUses(old Value, to func(Use) Value) {
	t, ok := old.(userTracked)
	if !ok {
		return
	}
	uses := append([]Use(nil), t.Uses()...)
	// moved reuses the snapshot's storage: it is written at or behind the
	// read position.
	moved := uses[:0]
	for _, u := range uses {
		v := to(u)
		if v == nil {
			continue
		}
		u.User.operands[u.Index] = v
		trackUse(v, u)
		moved = append(moved, u)
	}
	t.dropUses(moved)
}

// Param is a formal parameter of a function.
type Param struct {
	usable
	name   string
	typ    *Type
	parent *Func
	// Index is the position of the parameter in the function signature.
	Index int
}

// Type returns the parameter type.
func (p *Param) Type() *Type { return p.typ }

// Name returns the parameter name (may be empty before printing).
func (p *Param) Name() string { return p.name }

// SetName sets the parameter name.
func (p *Param) SetName(s string) { p.name = s }

// Parent returns the function owning the parameter.
func (p *Param) Parent() *Func { return p.parent }

// Ident returns the reference form "%name".
func (p *Param) Ident() string {
	if p.name == "" {
		return "%arg" + strconv.Itoa(p.Index)
	}
	return "%" + p.name
}
