package ir_test

import (
	"strings"
	"testing"

	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

func TestLinkResolvesDeclarations(t *testing.T) {
	a := ir.MustParseModule("a", `
declare i64 @provide(i64)

define i64 @consume(i64 %x) {
entry:
  %r = call i64 @provide(i64 %x)
  ret i64 %r
}
`)
	b := ir.MustParseModule("b", `
define i64 @provide(i64 %x) {
entry:
  %r = mul i64 %x, 7
  ret i64 %r
}
`)
	linked, err := ir.LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatal(err)
	}
	if linked.FuncByName("provide").IsDecl() {
		t.Fatal("declaration should resolve to the definition")
	}
	mc := interp.NewMachine(linked)
	got, err := mc.Run("consume", 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("consume(6) = %d, want 42", got)
	}
}

func TestLinkRenamesInternalCollisions(t *testing.T) {
	a := ir.MustParseModule("a", `
define internal i64 @helper(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

define i64 @fromA(i64 %x) {
entry:
  %r = call i64 @helper(i64 %x)
  ret i64 %r
}
`)
	b := ir.MustParseModule("b", `
define internal i64 @helper(i64 %x) {
entry:
  %r = add i64 %x, 2
  ret i64 %r
}

define i64 @fromB(i64 %x) {
entry:
  %r = call i64 @helper(i64 %x)
  ret i64 %r
}
`)
	linked, err := ir.LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatal(err)
	}
	mc := interp.NewMachine(linked)
	ra, _ := mc.Run("fromA", 10)
	rb, _ := mc.Run("fromB", 10)
	if ra != 11 || rb != 12 {
		t.Errorf("fromA/fromB = %d/%d, want 11/12 (each must keep its own helper)", ra, rb)
	}
}

func TestLinkErrors(t *testing.T) {
	dup1 := ir.MustParseModule("d1", "define void @f() {\nentry:\n  ret void\n}")
	dup2 := ir.MustParseModule("d2", "define void @f() {\nentry:\n  ret void\n}")
	if _, err := ir.LinkModules("p", dup1, dup2); err == nil {
		t.Error("duplicate external definitions must fail")
	}

	sigA := ir.MustParseModule("s1", `
declare void @g(i64)

define void @useA() {
entry:
  call void @g(i64 1)
  ret void
}
`)
	sigB := ir.MustParseModule("s2", "define void @g(f64 %x) {\nentry:\n  ret void\n}")
	if _, err := ir.LinkModules("p", sigA, sigB); err == nil {
		t.Error("conflicting signatures must fail")
	}
}

func TestLinkGlobals(t *testing.T) {
	a := ir.MustParseModule("a", `
@shared = global i64 zeroinitializer
@mine = internal global i64 zeroinitializer

define void @seta(i64 %v) {
entry:
  store i64 %v, i64* @shared
  store i64 %v, i64* @mine
  ret void
}
`)
	b := ir.MustParseModule("b", `
@mine = internal global i64 zeroinitializer

define i64 @getb() {
entry:
  %v = load i64, i64* @mine
  ret i64 %v
}
`)
	linked, err := ir.LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatal(err)
	}
	// a's and b's internal @mine must be distinct storage.
	mc := interp.NewMachine(linked)
	if _, err := mc.Run("seta", 99); err != nil {
		t.Fatal(err)
	}
	got, err := mc.Run("getb")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("getb() = %d, want 0 (distinct internal globals)", got)
	}
	text := ir.FormatModule(linked)
	if strings.Count(text, "internal global") != 2 {
		t.Errorf("expected two internal globals:\n%s", text)
	}
}

// linkBenchProfile is the corpus of the Fig. 9 round-trip benchmarks.
var linkBenchProfile = workload.Profile{
	Name: "linkbench", NumFuncs: 120, AvgSize: 18, MaxSize: 48,
	Identical: 0.1, TypeVar: 0.1, InternalFrac: 0.6, Seed: 11,
}

// BenchmarkLink pins the relink-after-split hot path the pre-sized symbol
// tables optimize: split a corpus-sized module into units, then time
// relinking them (rebuilding fresh units per iteration — LinkModules
// consumes its inputs).
func BenchmarkLink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		units, err := ir.SplitModule(workload.Build(linkBenchProfile), 8)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ir.LinkModules("relinked", units...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplit times the other half of the round trip: splitting the
// BenchmarkLink corpus into 8 units (rebuilding the module per iteration —
// SplitModule may promote its internal functions).
func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := workload.Build(linkBenchProfile)
		b.StartTimer()
		if _, err := ir.SplitModule(m, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLinkDeterministic(t *testing.T) {
	build := func() string {
		a := ir.MustParseModule("a", `
declare i64 @x(i64)
declare i64 @y(i64)

define void @useA() {
entry:
  %1 = call i64 @x(i64 1)
  %2 = call i64 @y(i64 2)
  ret void
}
`)
		b := ir.MustParseModule("b", `
define i64 @y(i64 %v) {
entry:
  ret i64 %v
}

define i64 @x(i64 %v) {
entry:
  ret i64 %v
}
`)
		linked, err := ir.LinkModules("p", a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ir.FormatModule(linked)
	}
	if build() != build() {
		t.Error("linking is not deterministic")
	}
}
