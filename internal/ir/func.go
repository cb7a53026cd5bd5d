package ir

import (
	"fmt"
	"sync"
)

// sharedUseMu serializes use-list updates on module-level values (functions
// and globals). Instruction, block and parameter use lists are private to a
// single function body and are only ever mutated by one goroutine at a time,
// so they stay lock-free; functions and globals, however, are referenced
// from many bodies at once, and concurrent speculative merge attempts (the
// exploration framework's parallel candidate wave) all add and remove uses
// of the same shared callees and globals while building and discarding
// trial bodies. One process-wide mutex keeps those updates safe; use-list
// order stays deterministic because removal is order-preserving, so a
// discarded attempt leaves no trace.
var sharedUseMu sync.Mutex

func (f *Func) addUse(u Use) {
	sharedUseMu.Lock()
	f.usable.addUse(u)
	sharedUseMu.Unlock()
}

func (f *Func) removeUse(u Use) {
	sharedUseMu.Lock()
	f.usable.removeUse(u)
	sharedUseMu.Unlock()
}

func (f *Func) dropUses(moved []Use) {
	sharedUseMu.Lock()
	f.usable.dropUses(moved)
	sharedUseMu.Unlock()
}

// Uses returns a snapshot of the active uses of the function value.
func (f *Func) Uses() []Use {
	sharedUseMu.Lock()
	defer sharedUseMu.Unlock()
	return append([]Use(nil), f.uses...)
}

// NumUses returns the number of recorded uses.
func (f *Func) NumUses() int {
	sharedUseMu.Lock()
	defer sharedUseMu.Unlock()
	return len(f.uses)
}

func (g *Global) addUse(u Use) {
	sharedUseMu.Lock()
	g.usable.addUse(u)
	sharedUseMu.Unlock()
}

func (g *Global) removeUse(u Use) {
	sharedUseMu.Lock()
	g.usable.removeUse(u)
	sharedUseMu.Unlock()
}

func (g *Global) dropUses(moved []Use) {
	sharedUseMu.Lock()
	g.usable.dropUses(moved)
	sharedUseMu.Unlock()
}

// Uses returns a snapshot of the active uses of the global value.
func (g *Global) Uses() []Use {
	sharedUseMu.Lock()
	defer sharedUseMu.Unlock()
	return append([]Use(nil), g.uses...)
}

// NumUses returns the number of recorded uses.
func (g *Global) NumUses() int {
	sharedUseMu.Lock()
	defer sharedUseMu.Unlock()
	return len(g.uses)
}

// Linkage describes symbol visibility of a function or global.
type Linkage int

// Linkage kinds. External symbols may be referenced from outside the module
// (so their definitions cannot be deleted after merging, only replaced with
// thunks); internal symbols are module-private.
const (
	ExternalLinkage Linkage = iota
	InternalLinkage
)

// String returns the textual linkage keyword ("" for external).
func (l Linkage) String() string {
	if l == InternalLinkage {
		return "internal"
	}
	return ""
}

// Func is a function: a signature plus, for definitions, a list of basic
// blocks. Functions are Values (of pointer-to-function type) so they can be
// call operands and have their addresses taken.
type Func struct {
	usable
	name    string
	sig     *Type // FuncKind
	parent  *Module
	Params  []*Param
	Blocks  []*Block
	Linkage Linkage
	// Hotness is an optional profile weight (execution count) attached by
	// the profiling substrate; zero when no profile is present.
	Hotness uint64
}

// NewFunc creates a detached function with the given name and signature
// (a FuncKind type). Parameter values are created eagerly.
func NewFunc(name string, sig *Type) *Func {
	if sig.Kind != FuncKind {
		panic("ir: NewFunc requires a function type")
	}
	f := &Func{name: name, sig: sig}
	for i, pt := range sig.Fields {
		f.Params = append(f.Params, &Param{typ: pt, parent: f, Index: i})
	}
	return f
}

// Type returns the pointer-to-function type of the function value.
func (f *Func) Type() *Type { return PointerTo(f.sig) }

// Sig returns the function signature type.
func (f *Func) Sig() *Type { return f.sig }

// ReturnType returns the declared return type.
func (f *Func) ReturnType() *Type { return f.sig.Ret }

// Name returns the function name.
func (f *Func) Name() string { return f.name }

// SetName renames the function, keeping the module symbol table consistent.
func (f *Func) SetName(s string) {
	if f.parent != nil {
		delete(f.parent.funcByName, f.name)
		f.parent.funcByName[s] = f
	}
	f.name = s
}

// Ident returns the reference form "@name".
func (f *Func) Ident() string { return "@" + f.name }

// NumberLocals assigns every instruction its local-definition ordinal —
// parameters occupy [0, len(Params)) (their slice position, mirrored by
// Param.Index), instructions follow in layout order — and every block its
// layout index, returning the total definition count. Ordinals are scratch
// state read back via (*Inst).LocalOrd and (*Block).LayoutOrd; they stay
// valid only until the function's layout next changes. Numbering distinct
// functions concurrently is safe (instructions and blocks belong to exactly
// one function); numbering the same function from two goroutines is a data
// race.
func (f *Func) NumberLocals() int {
	n := int32(len(f.Params))
	for bi, b := range f.Blocks {
		b.ord = int32(bi)
		for _, in := range b.Insts {
			in.ord = n
			n++
		}
	}
	return int(n)
}

// Parent returns the module containing the function.
func (f *Func) Parent() *Module { return f.parent }

// IsDecl reports whether the function is a declaration (no body).
func (f *Func) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block of a definition.
func (f *Func) Entry() *Block {
	if f.IsDecl() {
		panic(fmt.Sprintf("ir: Entry on declaration %s", f.name))
	}
	return f.Blocks[0]
}

// AppendBlock attaches b at the end of the function.
func (f *Func) AppendBlock(b *Block) {
	if b.parent != nil {
		panic("ir: block already attached")
	}
	b.parent = f
	f.Blocks = append(f.Blocks, b)
}

// NewBlockIn creates a block with the given name and appends it to f.
func (f *Func) NewBlockIn(name string) *Block {
	b := NewBlock(name)
	f.AppendBlock(b)
	return b
}

// NumInsts returns the number of instructions in the function body.
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Insts calls fn for every instruction in layout order.
func (f *Func) Insts(fn func(*Inst)) {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			fn(in)
		}
	}
}

// HasAddressTaken reports whether the function's address escapes: it is used
// anywhere other than as the direct callee of a call or invoke. Such
// functions cannot be fully deleted after merging (paper §III-A).
func (f *Func) HasAddressTaken() bool {
	sharedUseMu.Lock()
	defer sharedUseMu.Unlock()
	for _, u := range f.uses {
		if (u.User.Op == OpCall || u.User.Op == OpInvoke) && u.Index == 0 {
			continue
		}
		return true
	}
	return false
}

// Callers returns the call/invoke instructions that directly call f.
func (f *Func) Callers() []*Inst {
	sharedUseMu.Lock()
	defer sharedUseMu.Unlock()
	var calls []*Inst
	for _, u := range f.uses {
		if (u.User.Op == OpCall || u.User.Op == OpInvoke) && u.Index == 0 {
			calls = append(calls, u.User)
		}
	}
	return calls
}

// DropBody removes all blocks from the function, turning it into a shell
// ready for a replacement body (used when thunkifying merged functions and
// when discarding trial merges).
//
// Teardown is linear in the body size. Every use of a body-local definition
// (a parameter, block or instruction of f) lies inside the dying body, so
// those use lists are cleared wholesale instead of entry by entry — removing
// the thousands of uses of one entry-block alloca front first with the
// order-preserving removeUse would shift the list tail once per use.
// Operands naming anything else — functions, globals, another function's
// definitions — go through removeUse (under sharedUseMu for the shared
// kinds), so the surviving use lists keep their order exactly.
func (f *Func) DropBody() {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for i, v := range in.operands {
				if v != nil && !f.ownsDef(v) {
					untrackUse(v, Use{User: in, Index: i})
				}
				in.operands[i] = nil
			}
			in.operands = in.operands[:0]
		}
	}
	for _, p := range f.Params {
		// The shell keeps its parameters (a thunk body reuses them), so
		// keep the list's storage but release the dead users.
		clear(p.uses)
		p.uses = p.uses[:0]
	}
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			in.uses = nil
			in.parent = nil
		}
		b.uses = nil
		b.Insts = nil
		b.parent = nil
	}
	f.Blocks = nil
}

// ownsDef reports whether v is a parameter, block or attached instruction
// of f's body — a definition whose every use lies inside that body.
func (f *Func) ownsDef(v Value) bool {
	switch d := v.(type) {
	case *Inst:
		return d.parent != nil && d.parent.parent == f
	case *Block:
		return d.parent == f
	case *Param:
		return d.parent == f
	}
	return false
}

// Global is a module-level global variable. Only the properties needed by
// the merging substrate are modelled: a name, a value type, an optional
// byte initializer and linkage.
type Global struct {
	usable
	name    string
	typ     *Type // value type; the global's value is a pointer to it
	parent  *Module
	Linkage Linkage
	// Init holds the initial bytes (little-endian, natural layout) or nil
	// for zero-initialized globals.
	Init []byte
}

// NewGlobal creates a detached global with the given name and value type.
func NewGlobal(name string, typ *Type) *Global {
	return &Global{name: name, typ: typ}
}

// Type returns the pointer type of the global value.
func (g *Global) Type() *Type { return PointerTo(g.typ) }

// ValueType returns the type of the pointed-to storage.
func (g *Global) ValueType() *Type { return g.typ }

// Name returns the global's name.
func (g *Global) Name() string { return g.name }

// SetName renames the global.
func (g *Global) SetName(s string) { g.name = s }

// Ident returns the reference form "@name".
func (g *Global) Ident() string { return "@" + g.name }

// Parent returns the module containing the global.
func (g *Global) Parent() *Module { return g.parent }
