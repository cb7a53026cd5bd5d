package core

import (
	"sync"
	"sync/atomic"

	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/par"
	"fmsa/internal/tti"
)

// FuncMemo caches the per-function facts that every merge attempt would
// otherwise recompute from an unchanged body: the linearization and its
// equivalence codes, the function's code size, the size of a call to it and
// the static half of its branch floor (brFloors). It also holds its
// target's fixed synthetic-instruction sizes and the sizes of calls by
// arity. The exploration loop (§IV, Fig. 7) tries each function against up
// to t candidates, and every attempt needs all of these for both sides; the
// memo computes each once per function per run.
//
// A memo serves one target and one linearization order, and encodes through
// one interner, so codes compare across its entries. A nil memo computes
// everything directly; that is the reference path the tests compare
// against.
//
// Invalidation is drop-only: an entry stays valid until the function's body
// changes. During exploration the only mutation is a merge commit, which
// rewrites the call sites of every caller of the two merged inputs and
// drops or thunkifies the inputs themselves, so the caller drops exactly
// that set after every commit. A dropped function is re-encoded and
// re-measured on its next lookup.
//
// Concurrency: lookups are safe from any number of goroutines (the
// evaluation wave). Drop must not race with lookups of the same function,
// which holds because drops run serially between waves. Every fill runs
// outside the lock and is a pure function of the body, so racing fills
// agree and the first writer wins. The encoding is filled when the entry is
// created; the sizes and floors on first use, because most encoded
// functions are never bounded.
type FuncMemo struct {
	target   tti.Target
	order    linearize.Order
	interner *encode.Interner
	synth    synthSizes

	mu      sync.RWMutex
	entries map[*ir.Func]*funcEntry
	calls   map[int]int // size of a void call, by argument count
}

// NewFuncMemo returns an empty memo pricing on t, linearizing in order and
// encoding through in.
func NewFuncMemo(t tti.Target, order linearize.Order, in *encode.Interner) *FuncMemo {
	return &FuncMemo{
		target: t, order: order, interner: in,
		synth:   newSynthSizes(t),
		entries: map[*ir.Func]*funcEntry{},
		calls:   map[int]int{},
	}
}

// funcEntry is one function's memoized facts: enc from creation, the rest
// on first use. Without a memo, Merge builds a transient entry per side, so
// the bound and the code generator share one computation either way.
type funcEntry struct {
	f      *ir.Func
	enc    *encode.Encoded
	size   lazySize // tti.FuncSize
	call   lazySize // size of a call to f
	floors atomic.Pointer[brFloors]
}

// lazySize is a size filled on first use. It holds size+1, so the zero
// value reads as unfilled.
type lazySize struct{ v atomic.Int64 }

func (l *lazySize) get(fill func() int) int {
	if v := l.v.Load(); v != 0 {
		return int(v - 1)
	}
	n := fill()
	l.v.Store(int64(n) + 1)
	return n
}

func newEntry(f *ir.Func, order linearize.Order, in *encode.Interner) *funcEntry {
	return &funcEntry{f: f, enc: in.Encode(linearize.LinearizeOrder(f, order))}
}

// funcSize returns tti.FuncSize of the entry's function on t.
func (e *funcEntry) funcSize(t tti.Target) int {
	return e.size.get(func() int { return tti.FuncSize(t, e.f) })
}

// callSize returns the size on t of a call to the entry's function.
func (e *funcEntry) callSize(t tti.Target) int {
	return e.call.get(func() int {
		call := syntheticCall(e.f)
		defer call.Detach()
		return t.InstSize(call)
	})
}

// brFloors returns the branch floors of the entry's own linearization.
func (e *funcEntry) brFloors() *brFloors {
	if fl := e.floors.Load(); fl != nil {
		return fl
	}
	e.floors.CompareAndSwap(nil, buildBrFloors(e.enc.Seq))
	return e.floors.Load()
}

// lookup returns f's entry, creating it on a miss, and whether it hit.
func (m *FuncMemo) lookup(f *ir.Func) (*funcEntry, bool) {
	m.mu.RLock()
	e := m.entries[f]
	m.mu.RUnlock()
	if e != nil {
		return e, true
	}
	e = newEntry(f, m.order, m.interner)
	m.mu.Lock()
	if won := m.entries[f]; won != nil {
		e = won
	} else {
		m.entries[f] = e
	}
	m.mu.Unlock()
	return e, false
}

// Preload creates the entries of fs on up to workers goroutines. It counts
// no lookups.
func (m *FuncMemo) Preload(fs []*ir.Func, workers int) {
	es := make([]*funcEntry, len(fs))
	par.For(len(fs), workers, func(i int) {
		es[i] = newEntry(fs[i], m.order, m.interner)
	})
	m.mu.Lock()
	for i, f := range fs {
		m.entries[f] = es[i]
	}
	m.mu.Unlock()
}

// Drop forgets f's entry; the next lookup re-encodes and re-measures f.
// On a nil memo it does nothing.
func (m *FuncMemo) Drop(f *ir.Func) {
	if m == nil {
		return
	}
	m.mu.Lock()
	delete(m.entries, f)
	m.mu.Unlock()
}

// mustPrice panics unless m prices on t; a memo sized for one target would
// silently misprice another.
func (m *FuncMemo) mustPrice(t tti.Target) {
	if m.target != t {
		panic("core: FuncMemo built for " + m.target.Name() + " used on " + t.Name())
	}
}

// FuncSize returns tti.FuncSize(t, f), from f's entry when m is non-nil.
// t must be the memo's target.
func (m *FuncMemo) FuncSize(t tti.Target, f *ir.Func) int {
	if m == nil {
		return tti.FuncSize(t, f)
	}
	m.mustPrice(t)
	e, _ := m.lookup(f)
	return e.funcSize(t)
}

// synthSizes returns t's synthetic instruction sizes.
func (m *FuncMemo) synthSizes(t tti.Target) synthSizes {
	if m == nil {
		return newSynthSizes(t)
	}
	return m.synth
}

// arityCallSize returns the size on t of a void call with arity arguments.
func (m *FuncMemo) arityCallSize(t tti.Target, arity int) int {
	if m == nil {
		return measureArityCall(t, arity)
	}
	m.mu.RLock()
	size, ok := m.calls[arity]
	m.mu.RUnlock()
	if !ok {
		size = measureArityCall(t, arity)
		m.mu.Lock()
		m.calls[arity] = size
		m.mu.Unlock()
	}
	return size
}

func measureArityCall(t tti.Target, arity int) int {
	return t.InstSize(ir.NewInst(ir.OpCall, ir.Void(), make([]ir.Value, arity+1)...))
}

// synthSizes holds one target's sizes of the instructions the bound prices
// without building them: the func_id conditional branch, an operand select
// and the thunk's ret.
type synthSizes struct{ condBr, sel, ret int }

func newSynthSizes(t tti.Target) synthSizes {
	return synthSizes{
		condBr: t.InstSize(ir.NewInst(ir.OpBr, ir.Void(), nil, nil, nil)),
		sel:    t.InstSize(ir.NewInst(ir.OpSelect, ir.Bool(), nil, nil, nil)),
		ret:    t.InstSize(ir.NewInst(ir.OpRet, ir.Void())),
	}
}

// entry returns f's entry for a merge: from the memo when set (counting the
// lookup), otherwise a transient one linearized in o.Order through
// o.Interner.
func (o *Options) entry(f *ir.Func) *funcEntry {
	if o.Memo == nil {
		return newEntry(f, o.Order, o.Interner)
	}
	e, hit := o.Memo.lookup(f)
	if o.Timings != nil {
		o.Timings.CountSeqCache(hit)
	}
	return e
}
