package core

import (
	"strings"
	"testing"

	"fmsa/internal/encode"
	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
)

// mergeInModule parses src, merges the two named functions, commits the
// result and verifies the module.
func mergeInModule(t *testing.T, src, f1, f2 string) (*ir.Module, *Result) {
	t.Helper()
	m := ir.MustParseModule("test", src)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("pre-verify: %v", err)
	}
	res, err := Merge(m.FuncByName(f1), m.FuncByName(f2), DefaultOptions())
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	res.Commit()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("post-verify: %v\n%s", err, ir.FormatModule(m))
	}
	return m, res
}

func TestMergeIdenticalFunctions(t *testing.T) {
	m, res := mergeInModule(t, identicalPairIR, "ctor_a", "ctor_b")
	if res.HasFuncID {
		t.Error("identical merge should drop func_id (paper §III-A)")
	}
	if res.Stats.GapColumns != 0 || res.Stats.Selects != 0 {
		t.Errorf("identical merge should have no gaps/selects: %+v", res.Stats)
	}
	// Both internal originals must be deleted outright.
	if m.FuncByName("ctor_a") != nil || m.FuncByName("ctor_b") != nil {
		t.Error("internal originals should be removed")
	}
	// Semantics preserved.
	mc := interp.NewMachine(m)
	for _, x := range []uint64{0, 5, 100} {
		got, err := mc.Run("call_a", x)
		if err != nil {
			t.Fatal(err)
		}
		want := (x + 10) * 3
		if got != want {
			t.Errorf("call_a(%d) = %d, want %d", x, got, want)
		}
		got, err = mc.Run("call_b", x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("call_b(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestMergeSphinxExample(t *testing.T) {
	// Fig. 1: different parameter types (f32 vs f64). The state of the art
	// cannot merge these; FMSA must.
	m, res := mergeInModule(t, sphinxIR, "glist_add_float32", "glist_add_float64")
	if !res.HasFuncID {
		t.Error("divergent merge must keep func_id")
	}
	if res.Stats.GapColumns == 0 {
		t.Error("expected divergent columns for the differing stores")
	}
	// Merged parameter list contains both float types plus shared i8*.
	sig := res.Merged.Sig()
	var f32s, f64s, ptrs int
	for _, pt := range sig.Fields {
		switch pt {
		case ir.F32():
			f32s++
		case ir.F64():
			f64s++
		case ir.PointerTo(ir.I8()):
			ptrs++
		}
	}
	if f32s != 1 || f64s != 1 || ptrs != 1 {
		t.Errorf("merged params = %s; want one f32, one f64, one shared i8*", sig)
	}

	// Differential test: build a list node through each path and inspect
	// the stored payload and next pointer.
	mc := interp.NewMachine(m)
	node32, err := mc.Run("use32", 0, uint64(interp.F32(2.5)))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := mc.ReadMem(node32, 4)
	if err != nil {
		t.Fatal(err)
	}
	bits := uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24
	if interp.ToF32(uint64(bits)) != 2.5 {
		t.Errorf("float32 payload = %v, want 2.5", interp.ToF32(uint64(bits)))
	}
	node64, err := mc.Run("use64", node32, interp.F64(6.25))
	if err != nil {
		t.Fatal(err)
	}
	next, err := mc.ReadMem(node64+8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var nv uint64
	for i := 7; i >= 0; i-- {
		nv = nv<<8 | uint64(next[i])
	}
	if nv != node32 {
		t.Errorf("next pointer = %#x, want %#x", nv, node32)
	}
}

// registerQuantumIntrinsics installs the externals used by the libquantum
// fixture. objcodeResult controls the early-return path of
// quantum_cond_phase.
func registerQuantumIntrinsics(mc *interp.Machine, objcodeResult uint64, decohered *int) {
	mc.Register("quantum_objcode_put", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return objcodeResult, nil
	})
	mc.Register("quantum_decohere", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		*decohered++
		return 0, nil
	})
}

// buildQuantumReg allocates a {i64, i64*, f64*} register with the given
// states and unit amplitudes, returning its address.
func buildQuantumReg(t *testing.T, mc *interp.Machine, states []uint64) uint64 {
	t.Helper()
	n := uint64(len(states))
	reg, err := mc.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mc.Alloc(8 * n)
	if err != nil {
		t.Fatal(err)
	}
	amps, err := mc.Alloc(8 * n)
	if err != nil {
		t.Fatal(err)
	}
	w64 := func(addr, v uint64) {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		if err := mc.WriteMem(addr, b); err != nil {
			t.Fatal(err)
		}
	}
	w64(reg, n)
	w64(reg+8, st)
	w64(reg+16, amps)
	for i, s := range states {
		w64(st+uint64(8*i), s)
		w64(amps+uint64(8*i), interp.F64(1.0))
	}
	return reg
}

func readAmp(t *testing.T, mc *interp.Machine, reg uint64, i int) float64 {
	t.Helper()
	b, err := mc.ReadMem(reg+16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var amps uint64
	for k := 7; k >= 0; k-- {
		amps = amps<<8 | uint64(b[k])
	}
	b, err = mc.ReadMem(amps+uint64(8*i), 8)
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	for k := 7; k >= 0; k-- {
		v = v<<8 | uint64(b[k])
	}
	return interp.ToF64(v)
}

func TestMergeLibquantumExample(t *testing.T) {
	// Fig. 2: same signature, different CFGs (extra early-return block).
	runBoth := func(merged bool) (ampInv, ampFwd float64, decohered int) {
		m := ir.MustParseModule("q", libquantumIR)
		if merged {
			res, err := Merge(m.FuncByName("quantum_cond_phase_inv"), m.FuncByName("quantum_cond_phase"), DefaultOptions())
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			res.Commit()
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("post-verify: %v\n%s", err, ir.FormatModule(m))
			}
			if !res.HasFuncID {
				t.Error("CFG-divergent merge must keep func_id")
			}
		}
		// control=3, target=1: bits 3 and 1 must be set → state 0b1010.
		mc := interp.NewMachine(m)
		registerQuantumIntrinsics(mc, 0, &decohered)
		reg := buildQuantumReg(t, mc, []uint64{0b1010, 0b0010, 0b1000})
		if _, err := mc.Run("quantum_cond_phase_inv", 3, 1, reg); err != nil {
			t.Fatal(err)
		}
		ampInv = readAmp(t, mc, reg, 0)
		reg2 := buildQuantumReg(t, mc, []uint64{0b1010})
		if _, err := mc.Run("quantum_cond_phase", 3, 1, reg2); err != nil {
			t.Fatal(err)
		}
		ampFwd = readAmp(t, mc, reg2, 0)
		return
	}

	ai, af, dec := runBoth(false)
	mi, mf, mdec := runBoth(true)
	if ai != mi || af != mf {
		t.Errorf("merged semantics differ: orig (%v, %v), merged (%v, %v)", ai, af, mi, mf)
	}
	if dec != mdec {
		t.Errorf("decohere call count differs: %d vs %d", dec, mdec)
	}
	// The inv variant scales by -pi/4, the fwd by +pi/4.
	if ai >= 0 || af <= 0 {
		t.Errorf("expected opposite signs: inv %v, fwd %v", ai, af)
	}

	// Early-return path of the fwd variant.
	m := ir.MustParseModule("q", libquantumIR)
	res, err := Merge(m.FuncByName("quantum_cond_phase_inv"), m.FuncByName("quantum_cond_phase"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	decohered := 0
	mc := interp.NewMachine(m)
	registerQuantumIntrinsics(mc, 1, &decohered) // objcode_put returns true
	reg := buildQuantumReg(t, mc, []uint64{0b1010})
	if _, err := mc.Run("quantum_cond_phase", 3, 1, reg); err != nil {
		t.Fatal(err)
	}
	if decohered != 0 {
		t.Error("early return must skip decohere")
	}
	if got := readAmp(t, mc, reg, 0); got != 1.0 {
		t.Errorf("early return must not touch amplitudes, got %v", got)
	}
}

func TestMergeDifferentReturnTypes(t *testing.T) {
	m, res := mergeInModule(t, retMixIR, "geti", "getf")
	if res.Merged.ReturnType() != ir.I64() {
		t.Errorf("merged return type = %s, want i64 container", res.Merged.ReturnType())
	}
	mc := interp.NewMachine(m)
	got, err := mc.Run("usei", 41)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("usei(41) = %d, want 42", got)
	}
	gotf, err := mc.Run("usef", interp.F64(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if interp.ToF64(gotf) != 3.5 {
		t.Errorf("usef(2.5) = %v, want 3.5", interp.ToF64(gotf))
	}
}

func TestMergeVoidWithValue(t *testing.T) {
	m, res := mergeInModule(t, voidMixIR, "bump", "bumpget")
	if res.Merged.ReturnType() != ir.I64() {
		t.Errorf("merged return type = %s, want i64", res.Merged.ReturnType())
	}
	mc := interp.NewMachine(m)
	if _, err := mc.Run("useb", 5); err != nil {
		t.Fatal(err)
	}
	got, err := mc.Run("usebg", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("acc after bump(5); bumpget(7) = %d, want 12", got)
	}
}

func TestMergeExceptionHandling(t *testing.T) {
	m, res := mergeInModule(t, ehPairIR, "guard_add", "guard_mul")
	if !res.HasFuncID {
		t.Error("expected func_id")
	}
	for _, throwing := range []bool{false, true} {
		mc := interp.NewMachine(m)
		var logged []uint64
		mc.Register("log", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
			logged = append(logged, args[0])
			return 0, nil
		})
		mc.Register("throw", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
			if throwing {
				return 0, interp.ErrUnwind
			}
			return 0, nil
		})
		ga, err := mc.Run("use_ga", 10)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := mc.Run("use_gm", 10)
		if err != nil {
			t.Fatal(err)
		}
		if throwing {
			if ga != 0 || gm != 0 {
				t.Errorf("throwing: got (%d, %d), want (0, 0)", ga, gm)
			}
			if len(logged) != 2 {
				t.Errorf("throwing: log called %d times, want 2", len(logged))
			}
		} else {
			if ga != 11 || gm != 20 {
				t.Errorf("normal: got (%d, %d), want (11, 20)", ga, gm)
			}
			if len(logged) != 0 {
				t.Errorf("normal: log called %d times, want 0", len(logged))
			}
		}
	}
}

func TestMergeRejectsBadInputs(t *testing.T) {
	m := ir.MustParseModule("bad", `
declare void @ext()

define internal void @a() {
entry:
  ret void
}

define internal void @withphi(i1 %c) {
entry:
  br i1 %c, label %x, label %y
x:
  br label %j
y:
  br label %j
j:
  %p = phi i32 [ 1, %x ], [ 2, %y ]
  ret void
}
`)
	a := m.FuncByName("a")
	if _, err := Merge(a, a, DefaultOptions()); err == nil {
		t.Error("self-merge must fail")
	}
	if _, err := Merge(a, m.FuncByName("ext"), DefaultOptions()); err == nil {
		t.Error("merging a declaration must fail")
	}
	if _, err := Merge(a, m.FuncByName("withphi"), DefaultOptions()); err == nil {
		t.Error("merging phi-bearing function must fail")
	}
	other := ir.MustParseModule("other", `
define internal void @b() {
entry:
  ret void
}
`)
	if _, err := Merge(a, other.FuncByName("b"), DefaultOptions()); err == nil {
		t.Error("cross-module merge must fail")
	}
}

// TestMergeRejectsPhi checks that Merge refuses a φ-bearing input on
// either side with the same error text with and without a memo, that a
// memo keeps refusing it from the cached verdict, and that once the body is
// demoted and its entry dropped the pair merges.
func TestMergeRejectsPhi(t *testing.T) {
	m := ir.MustParseModule("phi", `
define internal void @a(i1 %c) {
entry:
  ret void
}

define internal void @withphi(i1 %c) {
entry:
  br i1 %c, label %x, label %y
x:
  br label %j
y:
  br label %j
j:
  %p = phi i32 [ 1, %x ], [ 2, %y ]
  ret void
}
`)
	a, phi := m.FuncByName("a"), m.FuncByName("withphi")
	want := phi.Ident() + " contains phi instructions; run DemotePhis first"
	withMemo := DefaultOptions()
	withMemo.Interner = encode.NewInterner()
	withMemo.Memo = NewFuncMemo(tti.X86{}, withMemo.Order, withMemo.Interner)
	for _, opts := range []Options{DefaultOptions(), withMemo} {
		for range 2 { // with a memo, the second round reads the cached verdict
			for _, pair := range [][2]*ir.Func{{a, phi}, {phi, a}} {
				if _, err := Merge(pair[0], pair[1], opts); err == nil || err.Error() != want {
					t.Errorf("memo=%t: Merge(@%s, @%s) = %v, want %q",
						opts.Memo != nil, pair[0].Name(), pair[1].Name(), err, want)
				}
			}
		}
	}
	passes.DemotePhis(phi)
	withMemo.Memo.Drop(phi)
	for _, opts := range []Options{DefaultOptions(), withMemo} {
		res, err := Merge(a, phi, opts)
		if err != nil {
			t.Fatalf("memo=%t: merge after DemotePhis: %v", opts.Memo != nil, err)
		}
		res.Discard()
	}
}

func TestExternalLinkageKeepsThunk(t *testing.T) {
	src := strings.ReplaceAll(identicalPairIR, "define internal i32 @ctor_a", "define i32 @ctor_a")
	m, _ := mergeInModule(t, src, "ctor_a", "ctor_b")
	a := m.FuncByName("ctor_a")
	if a == nil {
		t.Fatal("external ctor_a must survive as a thunk")
	}
	if a.IsDecl() || a.NumInsts() > 3 {
		t.Errorf("ctor_a should be a small thunk, has %d insts", a.NumInsts())
	}
	// The thunk must still compute the right value.
	mc := interp.NewMachine(m)
	got, err := mc.Run("ctor_a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Errorf("thunk ctor_a(1) = %d, want 33", got)
	}
}

func TestProfitability(t *testing.T) {
	// Identical functions: merging must be profitable on both targets.
	m := ir.MustParseModule("p", identicalPairIR)
	res, err := Merge(m.FuncByName("ctor_a"), m.FuncByName("ctor_b"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range tti.Targets() {
		if p := res.Profit(tgt); p <= 0 {
			t.Errorf("identical merge unprofitable on %s: %d", tgt.Name(), p)
		}
	}
	res.Discard()

	// Completely dissimilar functions with live call sites: merging must be
	// unprofitable (the widened call sites and guarded bodies outweigh the
	// single saved function overhead).
	m2 := ir.MustParseModule("p2", `
define internal i64 @ints(i64 %a, i64 %b) {
entry:
  %x = mul i64 %a, %b
  %y = add i64 %x, %a
  %z = xor i64 %y, %b
  %w = lshr i64 %z, 3
  ret i64 %w
}

define internal f64 @floats(f64 %a, f64 %b) {
entry:
  %x = fmul f64 %a, %b
  %y = fadd f64 %x, %a
  %z = fdiv f64 %y, %b
  %w = fsub f64 %z, %a
  ret f64 %w
}

define i64 @ci(i64 %a) {
entry:
  %r1 = call i64 @ints(i64 %a, i64 3)
  %r2 = call i64 @ints(i64 %r1, i64 5)
  ret i64 %r2
}

define f64 @cf(f64 %a) {
entry:
  %r1 = call f64 @floats(f64 %a, f64 3.0)
  %r2 = call f64 @floats(f64 %r1, f64 5.0)
  ret f64 %r2
}
`)
	res2, err := Merge(m2.FuncByName("ints"), m2.FuncByName("floats"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p := res2.Profit(tti.X86{}); p > 0 {
		t.Errorf("dissimilar merge should be unprofitable, got profit %d", p)
	}
	res2.Discard()
}

func TestStatsAccounting(t *testing.T) {
	m := ir.MustParseModule("s", sphinxIR)
	res, err := Merge(m.FuncByName("glist_add_float32"), m.FuncByName("glist_add_float64"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Discard()
	st := res.Stats
	if st.Len1 == 0 || st.Len2 == 0 {
		t.Error("lengths not recorded")
	}
	if st.MatchedColumns+st.GapColumns < st.Len1 || st.MatchedColumns+st.GapColumns < st.Len2 {
		t.Error("column counts inconsistent with sequence lengths")
	}
	if !st.HasFuncID {
		t.Error("HasFuncID should be set")
	}
}

func TestParamReuseSharesParameters(t *testing.T) {
	m := ir.MustParseModule("pr", sphinxIR)
	f1, f2 := m.FuncByName("glist_add_float32"), m.FuncByName("glist_add_float64")

	optsOn := DefaultOptions()
	resOn, err := Merge(f1, f2, optsOn)
	if err != nil {
		t.Fatal(err)
	}
	nOn := len(resOn.Merged.Params)
	resOn.Discard()

	optsOff := DefaultOptions()
	optsOff.ReuseParams = false
	resOff, err := Merge(f1, f2, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	nOff := len(resOff.Merged.Params)
	resOff.Discard()

	if nOn >= nOff {
		t.Errorf("param reuse should shrink the list: reuse=%d, no-reuse=%d", nOn, nOff)
	}
}

func TestCommutativeOperandReordering(t *testing.T) {
	// g's add has its operands swapped; commutativity-aware matching should
	// avoid selects entirely.
	src := `
define internal i32 @f(i32 %a, i32 %b) {
entry:
  %x = mul i32 %a, %b
  %r = add i32 %x, %a
  ret i32 %r
}

define internal i32 @g(i32 %a, i32 %b) {
entry:
  %x = mul i32 %a, %b
  %r = add i32 %a, %x
  ret i32 %r
}

define i32 @cf(i32 %a, i32 %b) {
entry:
  %r = call i32 @f(i32 %a, i32 %b)
  ret i32 %r
}

define i32 @cg(i32 %a, i32 %b) {
entry:
  %r = call i32 @g(i32 %a, i32 %b)
  ret i32 %r
}
`
	m, res := mergeInModule(t, src, "f", "g")
	if res.Stats.Selects != 0 {
		t.Errorf("commutative reordering should avoid selects, got %d", res.Stats.Selects)
	}
	mc := interp.NewMachine(m)
	for _, fn := range []string{"cf", "cg"} {
		got, err := mc.Run(fn, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != 15 {
			t.Errorf("%s(3,4) = %d, want 15", fn, got)
		}
	}
}

func TestMergeDifferentConstantsUsesSelect(t *testing.T) {
	src := `
define internal i64 @scale10(i64 %x) {
entry:
  %r = mul i64 %x, 10
  ret i64 %r
}

define internal i64 @scale100(i64 %x) {
entry:
  %r = mul i64 %x, 100
  ret i64 %r
}

define i64 @c10(i64 %x) {
entry:
  %r = call i64 @scale10(i64 %x)
  ret i64 %r
}

define i64 @c100(i64 %x) {
entry:
  %r = call i64 @scale100(i64 %x)
  ret i64 %r
}
`
	m, res := mergeInModule(t, src, "scale10", "scale100")
	if res.Stats.Selects == 0 {
		t.Error("differing constants require a select")
	}
	mc := interp.NewMachine(m)
	got, err := mc.Run("c10", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 70 {
		t.Errorf("c10(7) = %d, want 70", got)
	}
	got, err = mc.Run("c100", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 700 {
		t.Errorf("c100(7) = %d, want 700", got)
	}
}

func TestMergedCallsOtherFunctions(t *testing.T) {
	// Matched calls to different callees of the same type must become an
	// indirect call through a select.
	src := `
define internal i64 @h1(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

define internal i64 @h2(i64 %x) {
entry:
  %r = add i64 %x, 2
  ret i64 %r
}

define internal i64 @w1(i64 %x) {
entry:
  %y = mul i64 %x, 3
  %r = call i64 @h1(i64 %y)
  ret i64 %r
}

define internal i64 @w2(i64 %x) {
entry:
  %y = mul i64 %x, 3
  %r = call i64 @h2(i64 %y)
  ret i64 %r
}

define i64 @cw1(i64 %x) {
entry:
  %r = call i64 @w1(i64 %x)
  ret i64 %r
}

define i64 @cw2(i64 %x) {
entry:
  %r = call i64 @w2(i64 %x)
  ret i64 %r
}
`
	m, _ := mergeInModule(t, src, "w1", "w2")
	mc := interp.NewMachine(m)
	got, err := mc.Run("cw1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Errorf("cw1(5) = %d, want 16", got)
	}
	got, err = mc.Run("cw2", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 17 {
		t.Errorf("cw2(5) = %d, want 17", got)
	}
}

func TestEquivalenceRelation(t *testing.T) {
	m := ir.MustParseModule("eq", `
define void @f(i32 %a, i64* %p, f64 %x) {
entry:
  %add1 = add i32 %a, 1
  %add2 = add i32 %a, 2
  %add64 = add i64 5, 6
  %cmp1 = icmp slt i32 %a, 0
  %cmp2 = icmp sgt i32 %a, 0
  %al1 = alloca i32
  %al2 = alloca i64
  %fa = fadd f64 %x, %x
  ret void
}
`)
	f := m.FuncByName("f")
	get := map[string]*ir.Inst{}
	f.Insts(func(in *ir.Inst) {
		if in.Name() != "" {
			get[in.Name()] = in
		}
	})
	if !InstructionsEquivalent(get["add1"], get["add2"]) {
		t.Error("adds with different constants should be equivalent")
	}
	if InstructionsEquivalent(get["add1"], get["add64"]) {
		t.Error("adds of different widths must not be equivalent")
	}
	if InstructionsEquivalent(get["cmp1"], get["cmp2"]) {
		t.Error("different predicates must not be equivalent")
	}
	if InstructionsEquivalent(get["al1"], get["al2"]) {
		t.Error("different alloca types must not be equivalent")
	}
	if InstructionsEquivalent(get["add1"], get["fa"]) {
		t.Error("int and float ops must not be equivalent")
	}
	if !InstructionsEquivalent(get["add1"], get["add1"]) {
		t.Error("instruction must be equivalent to itself")
	}
}
