package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestBuilderTypeChecks(t *testing.T) {
	m := NewModule("b")
	f := m.NewFuncIn("f", FuncOf(Void(), I32(), F64(), PointerTo(I64())))
	entry := f.NewBlockIn("entry")
	b := NewBuilder(entry)
	i32v := f.Params[0]
	f64v := f.Params[1]
	ptr := f.Params[2]

	expectPanic(t, "mixed-type add", func() { b.Add(i32v, f64v) })
	expectPanic(t, "cond-br on non-bool", func() {
		b.CondBr(i32v, entry, entry)
	})
	expectPanic(t, "load from non-pointer", func() { b.Load(i32v) })
	expectPanic(t, "store type mismatch", func() { b.Store(i32v, ptr) })
	expectPanic(t, "select arm mismatch", func() {
		c := b.ICmp(PredEQ, i32v, i32v)
		b.Select(c, i32v, f64v)
	})
	expectPanic(t, "call arg mismatch", func() {
		callee := m.NewFuncIn("g", FuncOf(Void(), I64()))
		b.Call(callee, i32v)
	})
	expectPanic(t, "call of non-function", func() { b.Call(i32v) })
	expectPanic(t, "binary with non-binary op", func() { b.Binary(OpRet, i32v, i32v) })
	expectPanic(t, "cast with non-cast op", func() { b.Cast(OpAdd, i32v, I64()) })
}

func TestGEPResultTypes(t *testing.T) {
	st := StructOf(I32(), ArrayOf(4, F64()), PointerTo(I8()))
	ptr := PointerTo(st)
	idx := func(v int64) Value { return NewConstInt(I64(), v) }

	cases := []struct {
		indices []Value
		want    *Type
	}{
		{[]Value{idx(0)}, ptr},
		{[]Value{idx(0), NewConstInt(I32(), 0)}, PointerTo(I32())},
		{[]Value{idx(0), NewConstInt(I32(), 1)}, PointerTo(ArrayOf(4, F64()))},
		{[]Value{idx(0), NewConstInt(I32(), 1), idx(2)}, PointerTo(F64())},
		{[]Value{idx(0), NewConstInt(I32(), 2)}, PointerTo(PointerTo(I8()))},
	}
	for _, c := range cases {
		if got := GEPResultType(ptr, c.indices); got != c.want {
			t.Errorf("GEPResultType(%v) = %s, want %s", c.indices, got, c.want)
		}
	}

	expectPanic(t, "gep into scalar", func() {
		GEPResultType(PointerTo(I32()), []Value{idx(0), idx(0)})
	})
	expectPanic(t, "gep on non-pointer", func() {
		GEPResultType(I32(), []Value{idx(0)})
	})
	expectPanic(t, "variable struct index", func() {
		m := NewModule("x")
		f := m.NewFuncIn("f", FuncOf(Void(), I64()))
		GEPResultType(ptr, []Value{idx(0), f.Params[0]})
	})
}

func TestTruncSExtProperty(t *testing.T) {
	// Canonical constant representation: for any value and width, the
	// canonical form is a fixpoint and Uint returns the truncated bits.
	f := func(v int64, w uint8) bool {
		bits := int(w%64) + 1
		c := NewConstInt(Int(bits), v)
		c2 := NewConstInt(Int(bits), c.V)
		if c.V != c2.V {
			return false
		}
		mask := uint64(1)<<uint(bits) - 1
		if bits == 64 {
			mask = ^uint64(0)
		}
		return c.Uint() == uint64(v)&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(100))}); err != nil {
		t.Error(err)
	}
}

func TestSwitchBuilder(t *testing.T) {
	m := NewModule("sw")
	f := m.NewFuncIn("f", FuncOf(Void(), I32()))
	entry := f.NewBlockIn("entry")
	def := f.NewBlockIn("def")
	one := f.NewBlockIn("one")
	b := NewBuilder(entry)
	sw := b.Switch(f.Params[0], def)
	AddCase(sw, NewConstInt(I32(), 1), one)
	NewBuilder(def).Ret(nil)
	NewBuilder(one).Ret(nil)
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	succs := entry.Successors()
	if len(succs) != 2 || succs[0] != def || succs[1] != one {
		t.Errorf("switch successors wrong: %v", succs)
	}
	expectPanic(t, "AddCase on non-switch", func() {
		AddCase(def.Insts[0], NewConstInt(I32(), 2), one)
	})
}

func TestPhiBuilder(t *testing.T) {
	m := NewModule("phi")
	f := m.NewFuncIn("f", FuncOf(I32(), Bool()))
	entry := f.NewBlockIn("entry")
	a := f.NewBlockIn("a")
	bb := f.NewBlockIn("b")
	join := f.NewBlockIn("join")
	bd := NewBuilder(entry)
	bd.CondBr(f.Params[0], a, bb)
	NewBuilder(a).Br(join)
	NewBuilder(bb).Br(join)
	jb := NewBuilder(join)
	phi := jb.Phi(I32())
	AddIncoming(phi, NewConstInt(I32(), 1), a)
	AddIncoming(phi, NewConstInt(I32(), 2), bb)
	jb.Ret(phi)
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	if phi.NumPhiIncoming() != 2 {
		t.Errorf("incoming = %d, want 2", phi.NumPhiIncoming())
	}
	v, blk := phi.PhiIncoming(1)
	if v.(*ConstInt).V != 2 || blk != bb {
		t.Error("PhiIncoming(1) wrong")
	}
}

func TestInsertBefore(t *testing.T) {
	m := NewModule("ins")
	f := m.NewFuncIn("f", FuncOf(I32(), I32()))
	entry := f.NewBlockIn("entry")
	b := NewBuilder(entry)
	ret := b.Ret(f.Params[0])
	add := NewInst(OpAdd, I32(), f.Params[0], NewConstInt(I32(), 1))
	entry.InsertBefore(add, ret)
	ret.SetOperand(0, add)
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	if entry.Insts[0] != add || entry.Insts[1] != ret {
		t.Error("InsertBefore misplaced instruction")
	}
	expectPanic(t, "InsertBefore with foreign pos", func() {
		other := NewInst(OpAdd, I32(), f.Params[0], f.Params[0])
		entry.InsertBefore(NewInst(OpRet, Void()), other)
	})
}
