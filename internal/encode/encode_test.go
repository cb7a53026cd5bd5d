package encode_test

// Cross-check of the interning contract against the reference relation:
//
//	codes[i] == codes[j]  ⇔  core.EntriesEquivalent(seq_a[i], seq_b[j])
//
// for every cross-function index pair and every distinct-index pair within a
// function. This is the property the alignment kernels rest on — if it
// holds, one uint32 comparison per DP cell decides exactly what the §III-D
// structural equivalence walk would.

import (
	"sync"
	"testing"

	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/workload"
)

// featureIR packs the equivalence relation's special cases into a few small
// functions: invoke/landingpad pairs (matching and mismatching clause
// handling), icmp predicates that agree and disagree, alloca types, GEPs with
// constant and variable indices, switches with equal and different case
// constants, and phis (never equivalent, even to themselves).
const featureIR = `
declare void @throw()
declare void @log(i64)

define internal i64 @features_a(i64 %x, i64* %p, {i64, f64}* %s) {
entry:
  %m = alloca i64
  %c = icmp slt i64 %x, 10
  %g1 = getelementptr {i64, f64}, {i64, f64}* %s, i64 0, i32 0
  %g2 = getelementptr i64, i64* %p, i64 %x
  %t = trunc i64 %x to i32
  invoke void @throw() to label %mid unwind label %lpad
mid:
  switch i32 %t, label %def [ i32 1, label %one i32 2, label %two ]
one:
  br label %join
two:
  br label %join
join:
  %ph = phi i64 [ 1, %one ], [ 2, %two ]
  ret i64 %ph
def:
  ret i64 0
lpad:
  %lp = landingpad cleanup
  call void @log(i64 %x)
  ret i64 -1
}

define internal i64 @features_b(i64 %y, i64* %q, {i64, f64}* %r) {
entry:
  %m = alloca f64
  %c = icmp sgt i64 %y, 10
  %c2 = icmp slt i64 %y, 10
  %g1 = getelementptr {i64, f64}, {i64, f64}* %r, i64 0, i32 1
  %g2 = getelementptr i64, i64* %q, i64 %y
  %t = trunc i64 %y to i32
  invoke void @throw() to label %mid unwind label %lpad
mid:
  switch i32 %t, label %def [ i32 1, label %one i32 3, label %two ]
one:
  br label %join
two:
  br label %join
join:
  %ph = phi i64 [ 3, %one ], [ 4, %two ]
  ret i64 %ph
def:
  ret i64 0
lpad:
  %lp = landingpad cleanup
  call void @log(i64 %y)
  ret i64 -1
}
`

// checkContract asserts code equality ⇔ EntriesEquivalent for all pairs
// across the two encoded sequences, skipping identical (i == j) pairs when
// the two sequences are the same function: code(e) == code(e) trivially, but
// §III-D makes some entries non-equivalent to themselves.
func checkContract(t *testing.T, name string, a, b *encode.Encoded, same bool) {
	t.Helper()
	for i := range a.Seq {
		for j := range b.Seq {
			if same && i == j {
				continue
			}
			want := core.EntriesEquivalent(a.Seq[i], b.Seq[j])
			got := a.Codes[i] == b.Codes[j]
			if got != want {
				t.Errorf("%s: entry %d vs %d: codes say %v, EntriesEquivalent says %v",
					name, i, j, got, want)
			}
		}
	}
}

func encodeFunc(in *encode.Interner, f *ir.Func) *encode.Encoded {
	return in.Encode(linearize.Linearize(f))
}

// TestContractFeatureIR pins the per-opcode special cases on hand-written IR.
func TestContractFeatureIR(t *testing.T) {
	m := ir.MustParseModule("feat", featureIR)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	in := encode.NewInterner()
	fa := encodeFunc(in, m.FuncByName("features_a"))
	fb := encodeFunc(in, m.FuncByName("features_b"))
	checkContract(t, "a-vs-b", fa, fb, false)
	checkContract(t, "a-vs-a", fa, fa, true)
	checkContract(t, "b-vs-b", fb, fb, true)
}

// TestContractEHPair covers the invoke/unwind-clause plumbing on the same
// fixture shape the core EH tests use.
func TestContractEHPair(t *testing.T) {
	m := ir.MustParseModule("eh", ehPairIR)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	in := encode.NewInterner()
	ga := encodeFunc(in, m.FuncByName("guard_add"))
	gm := encodeFunc(in, m.FuncByName("guard_mul"))
	checkContract(t, "ga-vs-gm", ga, gm, false)

	// The matched invokes must land in one class: the alignment that drives
	// the EH merge depends on it.
	matched := false
	for i, e := range ga.Seq {
		if !e.IsLabel() && e.Inst.Op == ir.OpInvoke {
			for j, e2 := range gm.Seq {
				if !e2.IsLabel() && e2.Inst.Op == ir.OpInvoke && ga.Codes[i] == gm.Codes[j] {
					matched = true
				}
			}
		}
	}
	if !matched {
		t.Error("equivalent invokes with identical unwind pads did not share a code")
	}
}

const ehPairIR = `
declare void @throw()
declare void @log(i64)

define internal i64 @guard_add(i64 %x) {
entry:
  invoke void @throw() to label %ok unwind label %lpad
ok:
  %r = add i64 %x, 1
  ret i64 %r
lpad:
  %lp = landingpad cleanup
  call void @log(i64 %x)
  ret i64 0
}

define internal i64 @guard_mul(i64 %x) {
entry:
  invoke void @throw() to label %ok unwind label %lpad
ok:
  %r = mul i64 %x, 2
  ret i64 %r
lpad:
  %lp = landingpad cleanup
  call void @log(i64 %x)
  ret i64 0
}

define i64 @use_ga(i64 %x) {
entry:
  %r = call i64 @guard_add(i64 %x)
  ret i64 %r
}

define i64 @use_gm(i64 %x) {
entry:
  %r = call i64 @guard_mul(i64 %x)
  ret i64 %r
}
`

// TestContractWorkload sweeps the synthetic workload generator: every pair of
// functions in a clone-rich module must satisfy the contract. This is the
// broad-coverage arm — the generator emits arithmetic, memory, control flow
// and type variation over many shapes.
func TestContractWorkload(t *testing.T) {
	m := workload.Build(workload.Profile{
		Name: "enc", NumFuncs: 16, AvgSize: 25, MaxSize: 80,
		Identical: 0.2, TypeVar: 0.2, CFGVar: 0.2, Partial: 0.2,
		InternalFrac: 1.0, Seed: 42,
	})
	in := encode.NewInterner()
	var encs []*encode.Encoded
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		encs = append(encs, encodeFunc(in, f))
	}
	if len(encs) < 2 {
		t.Fatal("workload produced too few defined functions")
	}
	for i := 0; i < len(encs); i++ {
		for j := i; j < len(encs); j++ {
			checkContract(t, "workload", encs[i], encs[j], i == j)
		}
	}
}

// TestConcurrentEncode hammers one Interner from many goroutines (run under
// -race) and checks codes stay stable: encoding the same function twice must
// yield identical codes for every self-equivalent entry and the same Hash
// whenever all entries are self-equivalent.
func TestConcurrentEncode(t *testing.T) {
	m := workload.Build(workload.Profile{
		Name: "conc", NumFuncs: 12, AvgSize: 20, MaxSize: 60,
		Identical: 0.3, InternalFrac: 1.0, Seed: 7,
	})
	in := encode.NewInterner()
	var funcs []*ir.Func
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			funcs = append(funcs, f)
		}
	}
	results := make([][]*encode.Encoded, 4)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*encode.Encoded, len(funcs))
			for i, f := range funcs {
				out[i] = encodeFunc(in, f)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		for i := range funcs {
			a, b := results[0][i], results[g][i]
			for k := range a.Codes {
				if a.Codes[k] != b.Codes[k] {
					// Fresh codes for never-equivalent entries legitimately
					// differ across encodings; anything else must not.
					if core.EntriesEquivalent(a.Seq[k], b.Seq[k]) {
						t.Fatalf("goroutine %d: self-equivalent entry %d of %s changed code",
							g, k, funcs[i].Name())
					}
				}
			}
		}
	}
}
