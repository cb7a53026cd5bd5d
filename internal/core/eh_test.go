package core

import (
	"testing"

	"fmsa/internal/align"
	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
)

// TestInvokeCallerRewriteWithConversion exercises the edge-split path of
// rewriteCall: an invoke call site of a merged function whose return type
// widened to the i64 container.
func TestInvokeCallerRewriteWithConversion(t *testing.T) {
	src := `
declare void @throw()
declare void @log(i64)

define internal i32 @geti(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define internal f64 @getf(f64 %x) {
entry:
  %r = fadd f64 %x, 1.0
  ret f64 %r
}

define i32 @viainvoke(i32 %x) {
entry:
  %r = invoke i32 @geti(i32 %x) to label %ok unwind label %lpad
ok:
  %r2 = add i32 %r, 100
  ret i32 %r2
lpad:
  %lp = landingpad cleanup
  ret i32 -1
}

define f64 @viacall(f64 %x) {
entry:
  %r = call f64 @getf(f64 %x)
  ret f64 %r
}
`
	m := ir.MustParseModule("ehconv", src)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	res, err := Merge(m.FuncByName("geti"), m.FuncByName("getf"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.ReturnType() != ir.I64() {
		t.Fatalf("merged ret = %s, want i64", res.Merged.ReturnType())
	}
	res.Commit()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("post-verify: %v\n%s", err, ir.FormatModule(m))
	}

	mc := interp.NewMachine(m)
	mc.Register("throw", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return 0, nil
	})
	mc.Register("log", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return 0, nil
	})
	got, err := mc.Run("viainvoke", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 106 {
		t.Errorf("viainvoke(5) = %d, want 106", got)
	}
	gotf, err := mc.Run("viacall", interp.F64(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if interp.ToF64(gotf) != 2.5 {
		t.Errorf("viacall(1.5) = %v, want 2.5", interp.ToF64(gotf))
	}
}

// TestLandingDispatchHoisting merges two functions whose matched invokes
// unwind to landing blocks that end up in different merged blocks: the
// merger must hoist the landingpad into a dispatch block (§III-E).
func TestLandingDispatchHoisting(t *testing.T) {
	// The two functions differ in their landing-block bodies, so the
	// landing labels cannot merge, but the invokes match — forcing the
	// label-dispatch path for the unwind operand.
	src := `
declare void @throw()
declare void @logA(i64)
declare void @logB(i64)

define internal i64 @handlerA(i64 %x) {
entry:
  invoke void @throw() to label %ok unwind label %lpad
ok:
  %r = add i64 %x, 1
  ret i64 %r
lpad:
  %lp = landingpad cleanup
  call void @logA(i64 %x)
  call void @logA(i64 %x)
  call void @logA(i64 %x)
  ret i64 -1
}

define internal i64 @handlerB(i64 %x) {
entry:
  invoke void @throw() to label %ok unwind label %lpad
ok:
  %r = add i64 %x, 1
  ret i64 %r
lpad:
  %lp = landingpad cleanup
  call void @logB(i64 %x)
  ret i64 -2
}

define i64 @useA(i64 %x) {
entry:
  %r = call i64 @handlerA(i64 %x)
  ret i64 %r
}

define i64 @useB(i64 %x) {
entry:
  %r = call i64 @handlerB(i64 %x)
  ret i64 %r
}
`
	m := ir.MustParseModule("lpdisp", src)
	res, err := Merge(m.FuncByName("handlerA"), m.FuncByName("handlerB"), DefaultOptions())
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	res.Commit()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("post-verify: %v\n%s", err, ir.FormatModule(m))
	}

	for _, throwing := range []bool{false, true} {
		mc := interp.NewMachine(m)
		var loggedA, loggedB int
		mc.Register("throw", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
			if throwing {
				return 0, interp.ErrUnwind
			}
			return 0, nil
		})
		mc.Register("logA", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
			loggedA++
			return 0, nil
		})
		mc.Register("logB", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
			loggedB++
			return 0, nil
		})
		ra, err := mc.Run("useA", 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := mc.Run("useB", 10)
		if err != nil {
			t.Fatal(err)
		}
		if throwing {
			if int64(ra) != -1 || int64(rb) != -2 {
				t.Errorf("throwing: got (%d, %d), want (-1, -2)", int64(ra), int64(rb))
			}
			if loggedA != 3 || loggedB != 1 {
				t.Errorf("throwing: logA=%d logB=%d, want 3/1", loggedA, loggedB)
			}
		} else {
			if ra != 11 || rb != 11 {
				t.Errorf("normal: got (%d, %d), want (11, 11)", ra, rb)
			}
			if loggedA != 0 || loggedB != 0 {
				t.Error("normal path must not log")
			}
		}
	}
}

// TestNormalizePadsDegenerateAlignment forces a co-optimal alignment that
// matches the landing labels but gaps the two (identical) landingpads —
// without normalization, code generation would put a func_id branch ahead
// of the pad in the shared landing block.
func TestNormalizePadsDegenerateAlignment(t *testing.T) {
	m := ir.MustParseModule("np", ehPairIR)
	f1 := m.FuncByName("guard_add")
	f2 := m.FuncByName("guard_mul")

	opts := DefaultOptions()
	opts.Align = func(a, b []uint32) []align.Step {
		steps := align.AlignCodes(a, b)
		// Degenerate rewrite: split every matched landingpad column into
		// a gap pair.
		seq1 := linearize.Linearize(f1)
		var out []align.Step
		for _, s := range steps {
			if s.Op == align.OpMatch && !seq1[s.I].IsLabel() &&
				seq1[s.I].Inst.Op == ir.OpLandingPad {
				out = append(out,
					align.Step{Op: align.OpGapA, I: s.I, J: -1},
					align.Step{Op: align.OpGapB, I: -1, J: s.J})
				continue
			}
			out = append(out, s)
		}
		return out
	}

	res, err := Merge(f1, f2, opts)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	res.Commit()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("post-verify (pad normalization failed): %v\n%s", err, ir.FormatModule(m))
	}
	mc := interp.NewMachine(m)
	mc.Register("throw", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return 0, interp.ErrUnwind
	})
	mc.Register("log", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return 0, nil
	})
	got, err := mc.Run("use_ga", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("use_ga under unwind = %d, want 0", got)
	}
}

// TestMergeSwitchTerminators merges functions whose matched switch
// terminators branch to different labels, exercising dispatch blocks on
// switch operands.
func TestMergeSwitchTerminators(t *testing.T) {
	src := `
define internal i64 @swA(i64 %x) {
entry:
  %t = trunc i64 %x to i32
  switch i32 %t, label %def [ i32 1, label %one i32 2, label %two ]
one:
  %a = mul i64 %x, 10
  ret i64 %a
two:
  %b = mul i64 %x, 20
  ret i64 %b
def:
  ret i64 0
}

define internal i64 @swB(i64 %x) {
entry:
  %t = trunc i64 %x to i32
  switch i32 %t, label %def [ i32 1, label %one i32 2, label %two ]
one:
  %a = mul i64 %x, 11
  ret i64 %a
two:
  %b = mul i64 %x, 22
  ret i64 %b
def:
  ret i64 1
}

define i64 @driveA(i64 %x) {
entry:
  %r = call i64 @swA(i64 %x)
  ret i64 %r
}

define i64 @driveB(i64 %x) {
entry:
  %r = call i64 @swB(i64 %x)
  ret i64 %r
}
`
	m := ir.MustParseModule("sw", src)
	res, err := Merge(m.FuncByName("swA"), m.FuncByName("swB"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("post-verify: %v\n%s", err, ir.FormatModule(m))
	}
	mc := interp.NewMachine(m)
	cases := []struct {
		fn       string
		in, want uint64
	}{
		{"driveA", 1, 10}, {"driveA", 2, 40}, {"driveA", 7, 0},
		{"driveB", 1, 11}, {"driveB", 2, 44}, {"driveB", 7, 1},
	}
	for _, c := range cases {
		got, err := mc.Run(c.fn, c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s(%d) = %d, want %d", c.fn, c.in, got, c.want)
		}
	}
}
