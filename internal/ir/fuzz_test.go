package ir_test

// FuzzRoundTrip lives in the external test package so it can seed from the
// workload generator and cross-check the wire codec without import cycles.

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// FuzzRoundTrip: any input the parser accepts and the verifier passes must
// survive print→parse as a fixpoint and encode→decode→print byte-identically
// — the same property the wire tests check on generated corpora, here under
// mutated inputs. Run as a smoke in CI: go test -fuzz=FuzzRoundTrip
// -fuzztime=10s ./internal/ir/.
func FuzzRoundTrip(f *testing.F) {
	// Seeds mirror the example corpora: generator output plus hand-written
	// fragments exercising declarations, globals and exceptional control flow.
	for seed := int64(1); seed <= 3; seed++ {
		p := workload.Profile{
			Name: "fz", NumFuncs: 3, AvgSize: 15, MaxSize: 40,
			Identical: 0.3, TypeVar: 0.2, CFGVar: 0.2,
			InternalFrac: 0.5, Seed: seed,
		}
		f.Add(ir.FormatModule(workload.Build(p)))
	}
	f.Add("define void @f() {\nentry:\n  ret void\n}\n")
	f.Add("declare i32 @printf(i8*, ...)\n")
	f.Add("@g = global [4 x i32] zeroinitializer\n\ndefine i32* @p() {\nentry:\n  %e = getelementptr [4 x i32], [4 x i32]* @g, i32 0\n  ret i32* %e\n}\n")
	// Past crashers: untrusted input reaching panicking constructors.
	f.Add("declare f0 @f()\n")
	f.Add("define i1 @g(){A:getelementptr [0 x i1], [0 x i1] %x\n")
	f.Add("define i32 @n() {\nentry:\n  ret i32 null\n}\n")
	f.Add("define i32 @m() {\nentry:\n  ret i32 nan\n}\n")
	f.Add("define void @s(i32 %a) {\nentry:\n  switch i32 %a, label %entry [ i32 %b, label %entry ]\nx:\n  %b = add i32 1, 2\n  ret void\n}\n")
	f.Add("@s = global [2 x i8] bytes \n")
	// One seed per construct the generator does not emit.
	f.Add("define i64 @sw(i64 %x) {\nentry:\n  switch i64 %x, label %d [ i64 0, label %a  i64 -7, label %b ]\na:\n  ret i64 1\nb:\n  ret i64 2\nd:\n  ret i64 %x\n}\n")
	f.Add("declare void @ext(i64)\n\ndefine void @eh(i64 %x) {\nentry:\n  invoke void @ext(i64 %x) to label %ok unwind label %lp\nok:\n  ret void\nlp:\n  %t = landingpad cleanup catch @ti\n  resume token %t\n}\n\n@ti = global i8 zeroinitializer\n")
	f.Add("define i64 @phi(i1 %c) {\nentry:\n  br i1 %c, label %a, label %b\na:\n  br label %j\nb:\n  br label %j\nj:\n  %p = phi i64 [ 1, %a ], [ %q, %b ]\n  %q = add i64 %p, 1\n  ret i64 %p\n}\n")
	f.Add("declare i32 @printf(i8*, ...)\n\ndefine i32 @va(i8* %s) {\nentry:\n  %r = call i32 @printf(i8* %s, i64 1, f64 2.5, f32 -0.0)\n  ret i32 %r\n}\n")
	f.Add("@msg = internal global [3 x i8] bytes \"686900\"\n@z = global {i32, f64} zeroinitializer\n")
	f.Add("; a comment line\ndefine void @c() { ; after the brace\nentry: ; after a label\n  ret void ; after an instruction\n} ; after the body\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.ParseModule("fuzz", src)
		if err != nil {
			// Rejecting malformed input is fine; panicking is not, and
			// neither is an error that does not say where.
			checkParseErrorPosition(t, src, err)
			return
		}
		if err := ir.VerifyModule(m); err != nil {
			return // the parser is laxer than the verifier; stop at unverifiable
		}
		text1 := ir.FormatModule(m)
		m2, err := ir.ParseModule("fuzz", text1)
		if err != nil {
			t.Fatalf("reparse of printed module failed: %v\n%s", err, text1)
		}
		if text2 := ir.FormatModule(m2); text2 != text1 {
			t.Fatalf("print/parse is not a fixpoint:\n--- first\n%s\n--- second\n%s", text1, text2)
		}
		data, err := wire.Encode(m2)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		m3, err := wire.Decode(data, wire.Options{Workers: 2})
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := ir.VerifyModule(m3); err != nil {
			t.Fatalf("decoded module fails verify: %v", err)
		}
		if got := ir.FormatModule(m3); got != text1 {
			t.Fatalf("wire round trip changed the module text:\n--- text\n%s\n--- wire\n%s", text1, got)
		}
	})
}

// parseErrorPos matches the two positions a parse error may name: a source
// line, or the function whose body references an undefined label.
var parseErrorPos = regexp.MustCompile(`^(?:line ([0-9]+): |in ([^ :]+): )`)

// checkParseErrorPosition fails unless err starts with "line N: " for a
// line of src, or with "in f: " for a function src defines.
func checkParseErrorPosition(t *testing.T, src string, err error) {
	t.Helper()
	m := parseErrorPos.FindStringSubmatch(err.Error())
	switch {
	case m == nil:
		t.Fatalf("error names no position: %v", err)
	case m[1] != "":
		n, convErr := strconv.Atoi(m[1])
		if lines := strings.Count(src, "\n") + 1; convErr != nil || n < 1 || n > lines {
			t.Fatalf("error names line %s of a %d-line input: %v", m[1], lines, err)
		}
	case !strings.Contains(src, "@"+m[2]):
		t.Fatalf("error names function %q the input does not define: %v", m[2], err)
	}
}
