package ir

import (
	"strings"
	"testing"
)

func TestTypeInterning(t *testing.T) {
	if Int(32) != Int(32) {
		t.Error("Int(32) not interned")
	}
	if PointerTo(Int(8)) != PointerTo(Int(8)) {
		t.Error("pointer types not interned")
	}
	if StructOf(I32(), F64()) != StructOf(I32(), F64()) {
		t.Error("struct types not interned")
	}
	if FuncOf(Void(), I32()) != FuncOf(Void(), I32()) {
		t.Error("func types not interned")
	}
	if Int(32) == Int(64) {
		t.Error("distinct widths interned together")
	}
	if ArrayOf(3, I32()) == ArrayOf(4, I32()) {
		t.Error("distinct lengths interned together")
	}
	if FuncOf(Void(), I32()) == VarFuncOf(Void(), I32()) {
		t.Error("variadic and non-variadic interned together")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   *Type
		want string
	}{
		{Void(), "void"},
		{I32(), "i32"},
		{Bool(), "i1"},
		{F64(), "f64"},
		{PointerTo(F32()), "f32*"},
		{ArrayOf(4, I8()), "[4 x i8]"},
		{StructOf(I32(), PointerTo(I8())), "{i32, i8*}"},
		{FuncOf(I32(), F64(), I64()), "i32 (f64, i64)"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		ty    *Type
		bytes int
	}{
		{Bool(), 1},
		{I8(), 1},
		{I32(), 4},
		{I64(), 8},
		{F32(), 4},
		{F64(), 8},
		{PointerTo(I8()), 8},
		{ArrayOf(5, I32()), 20},
		{StructOf(I32(), F64()), 12},
	}
	for _, c := range cases {
		if got := c.ty.SizeBytes(); got != c.bytes {
			t.Errorf("%s SizeBytes = %d, want %d", c.ty, got, c.bytes)
		}
	}
}

func TestLosslesslyBitcastable(t *testing.T) {
	cases := []struct {
		a, b *Type
		want bool
	}{
		{I32(), I32(), true},
		{I32(), F32(), true},
		{I64(), F64(), true},
		{I32(), F64(), false},
		{I32(), I64(), false},
		{PointerTo(I8()), PointerTo(F64()), true},
		{PointerTo(I8()), I64(), true}, // same representation width
		{Void(), Void(), true},
		{Void(), I32(), false},
	}
	for _, c := range cases {
		if got := LosslesslyBitcastable(c.a, c.b); got != c.want {
			t.Errorf("LosslesslyBitcastable(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestConstIntCanonicalization(t *testing.T) {
	c := NewConstInt(I8(), 255)
	if c.V != -1 {
		t.Errorf("i8 255 canonical value = %d, want -1", c.V)
	}
	if c.Uint() != 255 {
		t.Errorf("Uint() = %d, want 255", c.Uint())
	}
	if !ConstantsEqual(NewConstInt(I8(), 255), NewConstInt(I8(), -1)) {
		t.Error("i8 255 != i8 -1")
	}
	if ConstantsEqual(NewConstInt(I8(), 1), NewConstInt(I16(), 1)) {
		t.Error("constants of different types compared equal")
	}
}

// buildSimpleFunc constructs: i32 @f(i32 %a) { return a+1 }
func buildSimpleFunc(m *Module, name string) *Func {
	f := m.NewFuncIn(name, FuncOf(I32(), I32()))
	f.Params[0].SetName("a")
	entry := f.NewBlockIn("entry")
	b := NewBuilder(entry)
	sum := b.Add(f.Params[0], NewConstInt(I32(), 1))
	b.Ret(sum)
	return f
}

func TestBuilderAndVerify(t *testing.T) {
	m := NewModule("test")
	f := buildSimpleFunc(m, "f")
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if f.NumInsts() != 2 {
		t.Errorf("NumInsts = %d, want 2", f.NumInsts())
	}
}

func TestUseLists(t *testing.T) {
	m := NewModule("test")
	f := m.NewFuncIn("f", FuncOf(I32(), I32()))
	entry := f.NewBlockIn("entry")
	b := NewBuilder(entry)
	add := b.Add(f.Params[0], f.Params[0])
	mul := b.Mul(add, add)
	b.Ret(mul)

	if f.Params[0].NumUses() != 2 {
		t.Errorf("param uses = %d, want 2", f.Params[0].NumUses())
	}
	if add.NumUses() != 2 {
		t.Errorf("add uses = %d, want 2", add.NumUses())
	}
	if mul.NumUses() != 1 {
		t.Errorf("mul uses = %d, want 1", mul.NumUses())
	}

	// RAUW add with a constant.
	ReplaceAllUsesWith(add, NewConstInt(I32(), 7))
	if add.NumUses() != 0 {
		t.Errorf("add uses after RAUW = %d, want 0", add.NumUses())
	}
	if mul.Operand(0).(*ConstInt).V != 7 {
		t.Error("RAUW did not rewrite mul operand")
	}
}

func TestRemoveInstruction(t *testing.T) {
	m := NewModule("test")
	f := m.NewFuncIn("f", FuncOf(I32(), I32()))
	entry := f.NewBlockIn("entry")
	b := NewBuilder(entry)
	dead := b.Add(f.Params[0], NewConstInt(I32(), 3))
	b.Ret(f.Params[0])
	if f.Params[0].NumUses() != 2 {
		t.Fatalf("param uses = %d, want 2", f.Params[0].NumUses())
	}
	dead.RemoveFromParent()
	if f.Params[0].NumUses() != 1 {
		t.Errorf("param uses after removal = %d, want 1", f.Params[0].NumUses())
	}
	if len(entry.Insts) != 1 {
		t.Errorf("block length = %d, want 1", len(entry.Insts))
	}
}

func TestSuccessorsAndPreds(t *testing.T) {
	m := NewModule("test")
	f := m.NewFuncIn("f", FuncOf(Void(), Bool()))
	entry := f.NewBlockIn("entry")
	thenB := f.NewBlockIn("then")
	elseB := f.NewBlockIn("else")
	exit := f.NewBlockIn("exit")
	b := NewBuilder(entry)
	b.CondBr(f.Params[0], thenB, elseB)
	b.SetBlock(thenB)
	b.Br(exit)
	b.SetBlock(elseB)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(nil)

	succs := entry.Successors()
	if len(succs) != 2 || succs[0] != thenB || succs[1] != elseB {
		t.Errorf("entry successors wrong: %v", succs)
	}
	preds := exit.Preds()
	if len(preds) != 2 {
		t.Errorf("exit preds = %d, want 2", len(preds))
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

const exampleIR = `
@counter = internal global i64 zeroinitializer
@table = global [4 x i32] bytes "01000000020000000300000004000000"

declare i8* @mymalloc(i64)

define internal i32 @clamp(i32 %x, i32 %lo, i32 %hi) {
entry:
  %c1 = icmp slt i32 %x, %lo
  br i1 %c1, label %retlo, label %checkhi
retlo:
  ret i32 %lo
checkhi:
  %c2 = icmp sgt i32 %x, %hi
  br i1 %c2, label %rethi, label %retx
rethi:
  ret i32 %hi
retx:
  ret i32 %x
}

define f64 @mix(f64 %a, f32 %b, i1 %flip) {
entry:
  %be = fpext f32 %b to f64
  %s = select i1 %flip, f64 %a, f64 %be
  %t = fadd f64 %s, 1.5
  ret f64 %t
}

define void @loop(i64 %n, i64* %out) {
entry:
  %i = alloca i64
  store i64 0, i64* %i
  br label %head
head:
  %iv = load i64, i64* %i
  %cond = icmp slt i64 %iv, %n
  br i1 %cond, label %body, label %done
body:
  %next = add i64 %iv, 1
  store i64 %next, i64* %i
  br label %head
done:
  store i64 %iv, i64* %out
  ret void
}
`

func TestParseFormatRoundTrip(t *testing.T) {
	m, err := ParseModule("example", exampleIR)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	text1 := FormatModule(m)
	m2, err := ParseModule("example", text1)
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, text1)
	}
	text2 := FormatModule(m2)
	if text1 != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}

	clamp := m.FuncByName("clamp")
	if clamp == nil || clamp.Linkage != InternalLinkage {
		t.Fatal("clamp not parsed as internal")
	}
	if clamp.NumInsts() != 7 {
		t.Errorf("clamp insts = %d, want 7", clamp.NumInsts())
	}
	g := m.GlobalByName("table")
	if g == nil || len(g.Init) != 16 {
		t.Fatal("table global not parsed")
	}
	if m.FuncByName("mymalloc") == nil || !m.FuncByName("mymalloc").IsDecl() {
		t.Error("mymalloc should be a declaration")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`define i32 @f() { entry: ret i32 %nope }`,
		`define i32 @f() { entry: br label %missing }`,
		`define void @f() { entry: frobnicate }`,
		`define void @f() { entry: ret void } define void @f() { entry: ret void }`,
		`@g = global i32 bytes "zz"`,
	}
	for _, src := range cases {
		if _, err := ParseModule("bad", src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
	// Duplicate module-level function should panic or error; AddFunc panics,
	// so ParseModule must surface it as... (we guard with recover here).
}

// TestParseUndefinedLabelFirstReferenced: with several undefined labels the
// error names the first one the body references, on every parse.
func TestParseUndefinedLabelFirstReferenced(t *testing.T) {
	src := "define void @f(i1 %c) {\nentry:\n  br i1 %c, label %b, label %a\n}\n"
	for i := 0; i < 20; i++ {
		_, err := ParseModule("bad", src)
		if want := "in f: branch to undefined label %b"; err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %q", i, err, want)
		}
	}
}

func TestParsePhiForwardRef(t *testing.T) {
	src := `
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i32 1, 2
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %y, %b ]
  ret i32 %p
}
`
	// %y is never defined: expect an error.
	if _, err := ParseModule("f", src); err == nil {
		t.Fatal("expected undefined-value error")
	}
	src = strings.Replace(src, "%y, %b", "0, %b", 1)
	m, err := ParseModule("f", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	// Unterminated block.
	m := NewModule("bad")
	f := m.NewFuncIn("f", FuncOf(Void()))
	entry := f.NewBlockIn("entry")
	_ = entry
	if err := VerifyFunc(f); err == nil {
		t.Error("empty block not caught")
	}

	// Use not dominated by def.
	m2 := NewModule("bad2")
	f2 := m2.NewFuncIn("f", FuncOf(I32(), Bool()))
	e := f2.NewBlockIn("entry")
	aB := f2.NewBlockIn("a")
	bB := f2.NewBlockIn("b")
	bld := NewBuilder(e)
	bld.CondBr(f2.Params[0], aB, bB)
	bld.SetBlock(aB)
	x := bld.Add(NewConstInt(I32(), 1), NewConstInt(I32(), 2))
	bld.Ret(x)
	bld.SetBlock(bB)
	bld.Ret(x) // x does not dominate this use
	if err := VerifyFunc(f2); err == nil {
		t.Error("dominance violation not caught")
	}

	// Ret type mismatch.
	m3 := NewModule("bad3")
	f3 := m3.NewFuncIn("f", FuncOf(I32()))
	e3 := f3.NewBlockIn("entry")
	e3.Append(NewInst(OpRet, Void(), NewConstFloat(F64(), 1.0)))
	if err := VerifyFunc(f3); err == nil {
		t.Error("ret type mismatch not caught")
	}

	// Aggregate load/store.
	m4 := NewModule("bad4")
	st := StructOf(I64(), I64())
	f4 := m4.NewFuncIn("f", FuncOf(Void(), PointerTo(st)))
	e4 := f4.NewBlockIn("entry")
	b4 := NewBuilder(e4)
	ld := b4.Load(f4.Params[0])
	b4.Store(ld, f4.Params[0])
	b4.Ret(nil)
	if err := VerifyFunc(f4); err == nil {
		t.Error("aggregate load/store not caught")
	}
}

// TestVerifyPhiIncomingMultiplicity: a conditional branch with both arms on
// the same target contributes TWO edges, so a phi in the target needs two
// incoming entries for that predecessor — one is a verifier error that a
// presence-only check would miss.
func TestVerifyPhiIncomingMultiplicity(t *testing.T) {
	build := func(entries int) *Func {
		m := NewModule("phi")
		f := m.NewFuncIn("f", FuncOf(I32(), Bool()))
		e := f.NewBlockIn("entry")
		join := f.NewBlockIn("join")
		NewBuilder(e).CondBr(f.Params[0], join, join)
		args := make([]Value, 0, 2*entries)
		for i := 0; i < entries; i++ {
			args = append(args, NewConstInt(I32(), int64(i)), Value(e))
		}
		phi := NewInst(OpPhi, I32(), args...)
		join.Append(phi)
		NewBuilder(join).Ret(phi)
		return f
	}
	if err := VerifyFunc(build(2)); err != nil {
		t.Errorf("two entries for a double edge should verify, got: %v", err)
	}
	if err := VerifyFunc(build(1)); err == nil {
		t.Error("one incoming entry for a double edge not caught")
	} else if !strings.Contains(err.Error(), "one per edge") {
		t.Errorf("wrong error for under-counted phi: %v", err)
	}
	if err := VerifyFunc(build(3)); err == nil {
		t.Error("three incoming entries for a double edge not caught")
	}
}

func TestDomTree(t *testing.T) {
	m := MustParseModule("d", `
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret void
}
`)
	f := m.FuncByName("f")
	dt := ComputeDomTree(f)
	get := func(name string) *Block {
		for _, b := range f.Blocks {
			if b.Name() == name {
				return b
			}
		}
		t.Fatalf("no block %s", name)
		return nil
	}
	entry, a, bb, join := get("entry"), get("a"), get("b"), get("join")
	if !dt.Dominates(entry, join) || !dt.Dominates(entry, a) {
		t.Error("entry should dominate all")
	}
	if dt.Dominates(a, join) || dt.Dominates(bb, join) {
		t.Error("a/b must not dominate join")
	}
	if dt.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dt.IDom(join))
	}
	if dt.IDom(entry) != nil {
		t.Error("entry idom should be nil")
	}
}

func TestReversePostOrder(t *testing.T) {
	m := MustParseModule("r", `
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret void
}
`)
	f := m.FuncByName("f")
	rpo := ReversePostOrder(f)
	if len(rpo) != 4 {
		t.Fatalf("rpo length = %d, want 4", len(rpo))
	}
	if rpo[0] != f.Entry() {
		t.Error("rpo must start at entry")
	}
	pos := map[string]int{}
	for i, b := range rpo {
		pos[b.Name()] = i
	}
	if pos["join"] != 3 {
		t.Errorf("join position = %d, want 3", pos["join"])
	}
}

func TestCloneFunc(t *testing.T) {
	m := MustParseModule("c", exampleIR)
	orig := m.FuncByName("loop")
	clone := CloneFunc(orig, "loop2")
	m.AddFunc(clone)
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify after clone: %v", err)
	}
	if clone.NumInsts() != orig.NumInsts() {
		t.Errorf("clone insts = %d, want %d", clone.NumInsts(), orig.NumInsts())
	}
	// Formatting both must produce identical bodies modulo the name.
	a := strings.Replace(FormatFunc(orig), "@loop", "@X", 1)
	b := strings.Replace(FormatFunc(clone), "@loop2", "@X", 1)
	if a != b {
		t.Errorf("clone body differs:\n%s\nvs\n%s", a, b)
	}
	// Mutating the clone must not affect the original.
	clone.Entry().Insts[0].SetName("renamed")
	if orig.Entry().Insts[0].Name() == "renamed" {
		t.Error("clone shares instruction with original")
	}
}

func TestFuncAddressTakenAndCallers(t *testing.T) {
	m := MustParseModule("a", `
declare void @sink(i64)

define void @callee() {
entry:
  ret void
}

define void @caller() {
entry:
  call void @callee()
  %p = ptrtoint void ()* @callee to i64
  call void @sink(i64 %p)
  ret void
}
`)
	callee := m.FuncByName("callee")
	if !callee.HasAddressTaken() {
		t.Error("callee address should be taken via ptrtoint")
	}
	if n := len(callee.Callers()); n != 1 {
		t.Errorf("callers = %d, want 1", n)
	}
}

func TestModuleUniqueName(t *testing.T) {
	m := NewModule("u")
	m.NewFuncIn("f", FuncOf(Void()))
	if got := m.UniqueName("g"); got != "g" {
		t.Errorf("UniqueName(g) = %q", got)
	}
	if got := m.UniqueName("f"); got == "f" {
		t.Error("UniqueName(f) must rename")
	}
}

func TestSwitchAndInvokeRoundTrip(t *testing.T) {
	src := `
declare void @may_throw()
declare void @handler()

define i32 @sw(i32 %x) {
entry:
  switch i32 %x, label %def [ i32 1, label %one i32 2, label %two ]
one:
  ret i32 10
two:
  ret i32 20
def:
  ret i32 0
}

define void @eh() {
entry:
  invoke void @may_throw() to label %ok unwind label %lpad
ok:
  ret void
lpad:
  %lp = landingpad cleanup catch @handler
  resume token %lp
}
`
	m, err := ParseModule("sw", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	text := FormatModule(m)
	m2, err := ParseModule("sw", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if FormatModule(m2) != text {
		t.Error("switch/invoke round trip unstable")
	}
	eh := m.FuncByName("eh")
	var lpadBlock *Block
	for _, b := range eh.Blocks {
		if b.Name() == "lpad" {
			lpadBlock = b
		}
	}
	if !lpadBlock.IsLandingBlock() {
		t.Error("lpad not recognised as landing block")
	}
}
