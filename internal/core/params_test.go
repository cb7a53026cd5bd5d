package core

import (
	"testing"

	"fmsa/internal/align"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
)

// planFor merges the parameter lists of two parsed functions using the real
// alignment, returning the plan.
func planFor(t *testing.T, src, n1, n2 string, reuse bool) (paramPlan, *ir.Func, *ir.Func) {
	t.Helper()
	m := ir.MustParseModule("pp", src)
	f1, f2 := m.FuncByName(n1), m.FuncByName(n2)
	in := encode.NewInterner()
	enc1 := in.Encode(linearize.Linearize(f1))
	enc2 := in.Encode(linearize.Linearize(f2))
	steps := align.DecomposeMismatches(align.AlignCodes(enc1.Codes, enc2.Codes))
	return buildParamPlan(f1, f2, enc1.Seq, enc2.Seq, steps, reuse), f1, f2
}

func TestParamPlanFig6Shape(t *testing.T) {
	// Fig. 6's example: F1(i1, i32, i32*, f32, double/f64) merged with
	// F2(f32, f64, i32, i32*): shared types are reused, the union plus the
	// func_id covers both.
	src := `
define void @f1(i1 %a, i32 %b, i32* %c, f32 %d, f64 %e) {
entry:
  ret void
}

define void @f2(f32 %p, f64 %q, i32 %r, i32* %s) {
entry:
  ret void
}
`
	plan, f1, f2 := planFor(t, src, "f1", "f2", true)
	// func_id + all five of f1's params; every f2 param reuses one.
	if len(plan.types) != 6 {
		t.Fatalf("merged param count = %d, want 6 (Fig. 6)", len(plan.types))
	}
	if plan.types[0] != ir.Bool() || !plan.hasFuncID {
		t.Error("slot 0 must be the i1 func_id")
	}
	// Mappings must be type correct and within range.
	for i, p := range f1.Params {
		if plan.types[plan.map1[i]] != p.Type() {
			t.Errorf("f1 param %d mapped to wrong type", i)
		}
	}
	for j, p := range f2.Params {
		if plan.types[plan.map2[j]] != p.Type() {
			t.Errorf("f2 param %d mapped to wrong type", j)
		}
	}
	// No two f2 params may share a slot.
	seen := map[int]bool{}
	for _, s := range plan.map2 {
		if seen[s] {
			t.Error("two f2 parameters mapped to the same slot")
		}
		seen[s] = true
	}
}

func TestParamPlanNoReuse(t *testing.T) {
	src := `
define void @a(i64 %x, i64 %y) {
entry:
  ret void
}

define void @b(i64 %p, i64 %q) {
entry:
  ret void
}
`
	plan, _, _ := planFor(t, src, "a", "b", false)
	if len(plan.types) != 5 { // func_id + 2 + 2
		t.Errorf("no-reuse param count = %d, want 5", len(plan.types))
	}
	plan2, _, _ := planFor(t, src, "a", "b", true)
	if len(plan2.types) != 3 { // func_id + 2 shared
		t.Errorf("reuse param count = %d, want 3", len(plan2.types))
	}
}

func TestParamPlanVotesChoosePairing(t *testing.T) {
	// f1 uses %x in the add; f2 uses its SECOND param in the matching add.
	// Vote-driven pairing must map f2.%q onto f1.%x so the matched add
	// needs no select.
	src := `
define i64 @u1(i64 %x, i64 %y) {
entry:
  %r = add i64 %x, 1
  %s = mul i64 %y, %y
  %t2 = xor i64 %r, %s
  ret i64 %t2
}

define i64 @u2(i64 %p, i64 %q) {
entry:
  %r = add i64 %q, 1
  %s = mul i64 %p, %p
  %t2 = xor i64 %r, %s
  ret i64 %t2
}
`
	plan, _, _ := planFor(t, src, "u1", "u2", true)
	// f2's %q (index 1) should share the slot of f1's %x (index 0).
	if plan.map2[1] != plan.map1[0] {
		t.Errorf("vote-driven pairing failed: map1=%v map2=%v", plan.map1, plan.map2)
	}
	if plan.map2[0] != plan.map1[1] {
		t.Errorf("complementary pairing failed: map1=%v map2=%v", plan.map1, plan.map2)
	}
}

func TestParamPlanMixedTypes(t *testing.T) {
	src := `
define void @m1(f32 %a, i64 %b) {
entry:
  ret void
}

define void @m2(f64 %c, i64 %d) {
entry:
  ret void
}
`
	plan, _, _ := planFor(t, src, "m1", "m2", true)
	// func_id + f32 + i64 (shared) + f64.
	if len(plan.types) != 4 {
		t.Errorf("param count = %d, want 4", len(plan.types))
	}
	var f32s, f64s, i64s int
	for _, ty := range plan.types[1:] {
		switch ty {
		case ir.F32():
			f32s++
		case ir.F64():
			f64s++
		case ir.I64():
			i64s++
		}
	}
	if f32s != 1 || f64s != 1 || i64s != 1 {
		t.Errorf("merged types wrong: %v", plan.types)
	}
}
