package ir_test

// Round-trip property tests live in an external test package so they can
// use the workload generator without an import cycle.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// TestFormatParseRoundTripProperty: for arbitrary generated modules,
// FormatModule produces text that reparses into a verifying module with
// identical formatting (a fixpoint after one round).
func TestFormatParseRoundTripProperty(t *testing.T) {
	f := func(seed int64, nf uint8) bool {
		p := workload.Profile{
			Name:      "rt",
			NumFuncs:  int(nf%12) + 2,
			AvgSize:   20,
			MaxSize:   80,
			Identical: 0.1, TypeVar: 0.1, CFGVar: 0.1,
			InternalFrac: 0.5,
			Seed:         seed,
		}
		m := workload.Build(p)
		text1 := ir.FormatModule(m)
		m2, err := ir.ParseModule("rt", text1)
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		if err := ir.VerifyModule(m2); err != nil {
			t.Logf("verify error: %v", err)
			return false
		}
		return ir.FormatModule(m2) == text1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Error(err)
	}
}

// TestVerifierAcceptsGeneratedModules: the generator and verifier agree on
// validity across a broad parameter space.
func TestVerifierAcceptsGeneratedModules(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		p := workload.Profile{
			Name: "v", NumFuncs: 10, AvgSize: 40, MaxSize: 200,
			Identical: 0.2, ConstVar: 0.1, TypeVar: 0.2, CFGVar: 0.2, Partial: 0.1, Reorder: 0.1,
			InternalFrac: 0.6, Seed: seed, TwinSize: 64,
		}
		m := workload.Build(p)
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFloatConstantRoundTrip checks exotic float spellings survive
// print/parse.
func TestFloatConstantRoundTrip(t *testing.T) {
	src := `
define f64 @consts(i1 %c) {
entry:
  %a = fadd f64 0.1, 1e100
  %b = fadd f64 %a, -2.5e-10
  %c2 = fadd f64 %b, +inf
  %d = fadd f64 %c2, -inf
  %e = select i1 %c, f64 %d, f64 nan
  %f = fadd f64 %e, 3.0
  ret f64 %f
}
`
	m, err := ir.ParseModule("fc", src)
	if err != nil {
		t.Fatal(err)
	}
	text1 := ir.FormatModule(m)
	m2, err := ir.ParseModule("fc", text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	if ir.FormatModule(m2) != text1 {
		t.Errorf("float round trip unstable:\n%s\nvs\n%s", text1, ir.FormatModule(m2))
	}
}

// TestI1ConstantSpelling checks the true/false forms round trip.
func TestI1ConstantSpelling(t *testing.T) {
	src := `
define i1 @flags(i1 %x) {
entry:
  %a = and i1 %x, true
  %b = or i1 %a, false
  ret i1 %b
}
`
	m, err := ir.ParseModule("i1", src)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.FormatModule(m)
	if _, err := ir.ParseModule("i1", text); err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
}
