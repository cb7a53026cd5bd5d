package wire_test

// Wire-format tests live in an external test package so they can use the
// workload generator and compare against the textual round trip.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

func buildModule(t testing.TB, seed int64, nf int) *ir.Module {
	t.Helper()
	p := workload.Profile{
		Name:      "wiret",
		NumFuncs:  nf,
		AvgSize:   30,
		MaxSize:   120,
		Identical: 0.2, ConstVar: 0.1, TypeVar: 0.2, CFGVar: 0.2, Partial: 0.1, Reorder: 0.1,
		InternalFrac: 0.5,
		Seed:         seed,
	}
	return workload.Build(p)
}

// reparse pushes a module through the textual round trip so its in-memory
// state (hotness, use-list order) is exactly what text ingest produces.
func reparse(t testing.TB, m *ir.Module) *ir.Module {
	t.Helper()
	m2, err := ir.ParseModule(m.Name, ir.FormatModule(m))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	return m2
}

// TestEncodeDecodeRoundTripProperty: for arbitrary generated modules,
// text→parse→encode→decode→print is byte-identical to the textual print,
// and the decoded module verifies — at several worker counts.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64, nf uint8) bool {
		m := reparse(t, buildModule(t, seed, int(nf%12)+2))
		want := ir.FormatModule(m)
		data, err := wire.Encode(m)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		for _, workers := range []int{1, 4} {
			got, err := wire.Decode(data, wire.Options{Workers: workers})
			if err != nil {
				t.Logf("decode (workers=%d): %v", workers, err)
				return false
			}
			if err := ir.VerifyModule(got); err != nil {
				t.Logf("verify (workers=%d): %v", workers, err)
				return false
			}
			if ir.FormatModule(got) != want {
				t.Logf("print mismatch (workers=%d)", workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

// useListSignature canonically serializes every use list in the module,
// naming each value by its structural position so signatures compare across
// independently decoded copies. Downstream passes observe use-list order
// through Preds and Callers, so wire ingest must reproduce it exactly.
func useListSignature(m *ir.Module) string {
	instPos := map[*ir.Inst]string{}
	var sig []byte
	for fi, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for ii, in := range b.Insts {
				instPos[in] = fmt.Sprintf("f%d.b%d.i%d", fi, bi, ii)
			}
		}
	}
	appendUses := func(what string, uses []ir.Use) {
		sig = append(sig, what...)
		for _, u := range uses {
			sig = append(sig, fmt.Sprintf(" %s#%d", instPos[u.User], u.Index)...)
		}
		sig = append(sig, '\n')
	}
	for fi, f := range m.Funcs {
		appendUses(fmt.Sprintf("func f%d", fi), f.Uses())
		for pi, p := range f.Params {
			appendUses(fmt.Sprintf("param f%d.p%d", fi, pi), p.Uses())
		}
		for bi, b := range f.Blocks {
			appendUses(fmt.Sprintf("block f%d.b%d", fi, bi), b.Uses())
			for ii, in := range b.Insts {
				appendUses(fmt.Sprintf("inst f%d.b%d.i%d", fi, bi, ii), in.Uses())
			}
		}
	}
	for gi, g := range m.Globals {
		appendUses(fmt.Sprintf("global g%d", gi), g.Uses())
	}
	return string(sig)
}

// TestDecodeUseListOrderMatchesText: decoded modules carry the exact
// use-list order the text parser produces, at every worker count.
func TestDecodeUseListOrderMatchesText(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := reparse(t, buildModule(t, seed, 10))
		want := useListSignature(m)
		data, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := wire.Decode(data, wire.Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if s := useListSignature(got); s != want {
				t.Fatalf("seed %d workers %d: use-list order diverges from text ingest", seed, workers)
			}
		}
	}
}

// TestMetadataRoundTrip: fields the textual format drops (hotness) or
// renders specially (linkage, global initializers) survive the wire.
func TestMetadataRoundTrip(t *testing.T) {
	m := ir.NewModule("meta")
	g := ir.NewGlobal("tbl", ir.ArrayOf(4, ir.I32()))
	g.Linkage = ir.InternalLinkage
	g.Init = []byte{1, 2, 3, 4}
	m.AddGlobal(g)
	zero := ir.NewGlobal("zero", ir.I64())
	m.AddGlobal(zero)
	sig := ir.FuncOf(ir.Void())
	f := ir.NewFunc("hot", sig)
	f.Linkage = ir.InternalLinkage
	f.Hotness = 123456789
	b := ir.NewBlock("entry")
	f.AppendBlock(b)
	b.Append(ir.NewInst(ir.OpRet, ir.Void()))
	m.AddFunc(f)
	decl := ir.NewFunc("ext", ir.VarFuncOf(ir.I32(), ir.PointerTo(ir.I8())))
	m.AddFunc(decl)

	data, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Decode(data, wire.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gf := got.FuncByName("hot")
	if gf == nil || gf.Hotness != 123456789 || gf.Linkage != ir.InternalLinkage {
		t.Errorf("function metadata lost: %+v", gf)
	}
	if gd := got.FuncByName("ext"); gd == nil || !gd.IsDecl() || !gd.Sig().Variadic {
		t.Errorf("declaration lost: %+v", gd)
	}
	gg := got.GlobalByName("tbl")
	if gg == nil || gg.Linkage != ir.InternalLinkage || string(gg.Init) != "\x01\x02\x03\x04" {
		t.Errorf("global metadata lost: %+v", gg)
	}
	if gz := got.GlobalByName("zero"); gz == nil || gz.Init != nil {
		t.Errorf("zeroinitializer global lost: %+v", gz)
	}
	if ir.FormatModule(got) != ir.FormatModule(m) {
		t.Error("printed forms diverge")
	}
}

// TestDecodeRejectsCorruptInput: truncations and byte flips must produce an
// error or a valid module — never a panic.
func TestDecodeRejectsCorruptInput(t *testing.T) {
	m := reparse(t, buildModule(t, 7, 6))
	data, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	decodeSafely := func(desc string, b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: decode panicked: %v", desc, r)
			}
		}()
		mod, err := wire.Decode(b, wire.Options{Workers: 2})
		if err == nil {
			if verr := ir.VerifyModule(mod); verr != nil {
				// A mutation that still decodes may legitimately produce a
				// module the verifier rejects (e.g. a flipped operand index
				// breaking dominance); what matters is decode not panicking
				// and VerifyModule catching it downstream.
				t.Logf("%s: decoded but unverifiable: %v", desc, verr)
			}
		}
	}
	for n := 0; n <= len(data); n += 1 + len(data)/256 {
		decodeSafely(fmt.Sprintf("truncate to %d", n), data[:n])
	}
	for i := 0; i < len(data); i += 1 + len(data)/512 {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			decodeSafely(fmt.Sprintf("flip byte %d by %#x", i, flip), mut)
		}
	}
}

// TestDecodeAnySniffs: DecodeAny routes by magic bytes.
func TestDecodeAnySniffs(t *testing.T) {
	m := reparse(t, buildModule(t, 11, 4))
	want := ir.FormatModule(m)
	data, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := wire.DecodeAny("x.fmir", data, 2)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := wire.DecodeAny("wiret", []byte(want), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ir.FormatModule(bin) != want || ir.FormatModule(txt) != want {
		t.Error("sniffing loader returned diverging modules")
	}
	if !wire.IsFMIR(data) || wire.IsFMIR([]byte(want)) {
		t.Error("IsFMIR misclassifies")
	}
}

func BenchmarkDecode(b *testing.B) {
	m := reparse(b, buildModule(b, 3, 64))
	data, err := wire.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	text := ir.FormatModule(m)
	b.Run("fmir", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(data, wire.Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := ir.ParseModule("b", text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
