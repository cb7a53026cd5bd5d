package ir_test

// Golden tables that pin the textual front end byte for byte: the printed
// form of every workload profile, a hand-written fixture that touches every
// opcode and spelling, and the exact error of each malformed input. The
// expected values were produced by the printer and parser they replaced, so
// a change to either side of the text path must reproduce them unchanged.

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// goldenFixture uses every opcode, invoke/landingpad/resume, varargs,
// switch, indirect calls, globals with and without bytes, anonymous and
// colliding local names, and the edge spellings of float and integer
// constants.
const goldenFixture = `; leading comment
@str = internal global [6 x i8] bytes "68656c6c6f00"
@zeros = global [4 x i32] zeroinitializer
@ti = global i8 zeroinitializer
@pair = internal global {i32, f64} bytes "0100000000000000000000000000f03f" ; trailing comment
@nested = global [2 x {i8, [3 x i16]}] zeroinitializer

declare i32 @printf(i8*, ...)
declare void @ext(i64)
declare i32 @anyargs(...)
declare {i32, f64}* @mk(i8**, [4 x i32]*)

define internal f64 @floats(f64 %x, f32 %y) {
entry:
  %a = fadd f64 %x, 0.1
  %b = fsub f64 %a, 1e100
  %c = fmul f64 %b, -2.5e-10
  %d = fdiv f64 %c, +inf
  %e = frem f64 %d, -inf
  %f = fadd f64 %e, nan
  %g = fadd f64 %f, 3.0
  %h = fadd f64 %g, 0.0
  %i = fadd f64 %h, -0.0
  %j = fadd f64 %i, 5e-324
  %k = fadd f64 %j, 1.7976931348623157e308
  %l = fadd f64 %k, 7
  %m = fadd f64 %l, 123456789012345680000.0
  %n = fadd f64 %m, 1E-7
  %y2 = fpext f32 %y to f64
  %z = fptrunc f64 %n to f32
  %fl = fadd f32 %z, 0.1
  %fi = fptosi f64 %n to i32
  %fu = fptoui f64 %n to i64
  %s = sitofp i32 %fi to f64
  %u = uitofp i64 %fu to f64
  %cmp = fcmp olt f64 %s, %u
  %cmp2 = fcmp oeq f32 %fl, 1.5
  %both = and i1 %cmp, %cmp2
  %r = select i1 %both, f64 %s, f64 %y2
  ret f64 %r
}

define i64 @ints(i64 %a, i32 %b, i1 %c, i8* %p, i64, i64 (i64)* %fp) {
entry:
  add i64 %a, 1
  %0 = sub i64 %a, 2
  %m = mul i64 %a, -9223372036854775808
  %sd = sdiv i64 %m, 18446744073709551615
  %ud = udiv i64 %sd, %a
  %sr = srem i64 %ud, 3
  %ur = urem i64 %sr, 5
  %sh = shl i64 %ur, 1
  %lr = lshr i64 %sh, 2
  %ar = ashr i64 %lr, 3
  %an = and i64 %ar, 255
  %o = or i64 %an, 256
  %x = xor i64 %o, -1
  %t = trunc i64 %x to i16
  %z = zext i16 %t to i64
  %s = sext i32 %b to i64
  %pi = ptrtoint i8* %p to i64
  %ip = inttoptr i64 %pi to i32*
  %bc = bitcast i32* %ip to i8*
  %flag = and i1 %c, true
  %flag2 = or i1 %flag, false
  %w = add i8 -128, 127
  %ind = call i64 %fp(i64 %z)
  %cmp = icmp sgt i64 %ind, 0
  br i1 %cmp, label %then, label %else
then:
  %v = add i64 %z, %s
  br label %join
else:
  %cmp3 = icmp ule i64 %pi, 10
  br i1 %cmp3, label %join, label %other
other:
  unreachable
join:
  %phi = phi i64 [ %v, %then ], [ 0, %else ]
  switch i64 %phi, label %done [ i64 0, label %a0 i64 -1, label %a1 ]
a0:
  ret i64 %phi
a1:
  ret i64 1
done:
  ret i64 %0
}

define void @mem(i64 %n, i8* %fmt) {
entry:
  %slot = alloca i64
  %arr = alloca [4 x i32]
  %st = alloca {i32, f64}
  %pp = alloca i8*
  store i64 %n, i64* %slot
  %ld = load i64, i64* %slot
  %g0 = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 %ld
  %g1 = getelementptr {i32, f64}, {i32, f64}* %st, i32 0, i32 1
  %g2 = getelementptr [4 x i32], [4 x i32]* @zeros, i32 0, i32 2
  %g3 = getelementptr [2 x {i8, [3 x i16]}], [2 x {i8, [3 x i16]}]* @nested, i64 0, i64 1, i32 1, i64 2
  %g4 = getelementptr i8, i8* %fmt, i64 3
  store f64 2.5, f64* %g1
  store i32 7, i32* %g0
  store i8* null, i8** %pp
  store i16 undef, i16* %g3
  %s = getelementptr [6 x i8], [6 x i8]* @str, i64 0, i64 0
  %r = call i32 @printf(i8* %s, i64 %n, f64 1.0, i8* %g4)
  %r2 = call i32 @anyargs()
  %mk = call {i32, f64}* @mk(i8** %pp, [4 x i32]* @zeros)
  call void @ext(i64 %ld)
  ret void
}

define void @eh(i64 %x) {
entry:
  invoke void @ext(i64 %x) to label %ok unwind label %lpad
ok:
  %r = invoke i32 @anyargs(i64 %x) to label %ok2 unwind label %lpad2
ok2:
  ret void
lpad:
  %lp = landingpad cleanup
  resume token %lp
lpad2:
  %lp2 = landingpad catch @ti cleanup catch @str
  resume token %lp2
}
`

// moduleDigest returns the hex SHA-256 of FormatModule(m).
func moduleDigest(m *ir.Module) string {
	sum := sha256.Sum256([]byte(ir.FormatModule(m)))
	return hex.EncodeToString(sum[:])
}

// goldenProfileDigests pins FormatModule for every workload profile.
var goldenProfileDigests = map[string]string{
	"400.perlbench":           "1b5b4c29d467cda75d0d8b0ff346050bcf3dc2775a1e44ff731ba135c110c692",
	"401.bzip2":               "396d53a0605d29c04ec78190f9a038cf963961df90628b35bc28851ab4c39f66",
	"403.gcc":                 "5c89e5c4961c1e51e1cc46465a41ee66f60963d09a391014e05bf026ac1b660c",
	"429.mcf":                 "dd845d3fb2e3d1ae538c9ebe6b36d6266fa2e046ea73d65babc3c673d3ac18b5",
	"433.milc":                "ffb2b5280a22a200291ee1250a73e16e393a42800615cc2cfc153068d4d58a4d",
	"444.namd":                "1ed3f96b7d2a77c685c8f920ff0a247547ce730785275767e035ac2a0bd1fba0",
	"445.gobmk":               "2ecfd3a7986490734fe396f8b54af3b5b2e447dcd4ec9be2cff96916a2d4a884",
	"447.dealII":              "e2cc4550e5a8b70a1eed90c9f33e70852d4a4cca23104d4f608f9297a21ccf1f",
	"450.soplex":              "b8513229c6457d9bc27abe7ea07511c4f9edb7fb95469feebbc273b2935afae5",
	"453.povray":              "195439c576f4bf30d30eb5fedd15712a2d22197240a83f7f55569d6c1ceeb1f0",
	"456.hmmer":               "0ec2444c5e5b652b1a1ec1a3fd9c8da84c5348639f15a1db802b649df9113c5b",
	"458.sjeng":               "4b6b3a068ed9c370ae2c964e3a973af3092ace6c7f68dee5905d088f2b39bb74",
	"462.libquantum":          "c6bb990c4fddd100d32707556710602c2347b1c8aa2f0732dcf2d48cf513d9ca",
	"464.h264ref":             "9a099b3ec2d5dc748dcfa5cee73a19fcdc32bcb39d0e43f39093d0d9a43bf2f9",
	"470.lbm":                 "865aeb5db751ad953279de7ff3bd85ca69dfc8ff074cde5bc9056d1ac9679fc0",
	"471.omnetpp":             "cf3e31d83cf343ed456fc2a965db4ae80d02cfa6e05f95215e6155762d46a8b5",
	"473.astar":               "5832ad2707267d11c932c7401e413c88acd51bc88a71d8ac963775e6e1665498",
	"482.sphinx3":             "59e7ff64bacabc29728c1bc3cf1283b1861cc89e4fe74e67d60be7e8b9dd63c9",
	"483.xalancbmk":           "4cd1e2dad5365176ab7660f165f1fc300fd4215ed1b6d6bd73959cc299af8a94",
	"CRC32":                   "4f283f7a8f9480b125fb317610bf1f44f3d045aefaa2dbdf3ed9fef5faa9d3c9",
	"FFT":                     "1a3e266c95a6c4242250764e7420957bd207e7153e0d8fbc1f34f2bd52551ee8",
	"adpcm_c":                 "25d3d0985a89cda53ecf7cd331938bd8b1c59a5880f0752a81a57004bc50eb51",
	"adpcm_d":                 "5dc6647dc9339a1a5c7916d67bc1a16e6865a305ebc6e89505c42c9111196981",
	"basicmath":               "1c30b2e930567d66eae8dc943acb518f313abfe1aab81268d5ef697283a6b535",
	"bitcount":                "480b5b33fac4da4933c3f32e0b526fd299cf93383754525d7bb65905181d2b43",
	"blowfish_d":              "f1721e566643cffed673f098d4f86adf977378ec4bef9edd8c4fb5c094b4c228",
	"blowfish_e":              "78c74fe71df1e6eca906957ce0d3f0adb2b2673e03e4c3320368f8349d86b02f",
	"jpeg_c":                  "b661550e7bca7b988f954cf56c27a05ae0f4f88feee9dfb661499abda9ded6d8",
	"dijkstra":                "703c3034d4c6278eef82353486289b11031a7a9cc85d7189e947a16e63458e35",
	"jpeg_d":                  "bd00d310d6c8c41cfea9aa1a9cccc91e7fd9f26601fa2111e97d5c0f0a23c6c4",
	"ghostscript":             "1785ec9ef9c6a32770c485731a4c7a1a155aa93a3514ec09d4adaf7fbe2f9f42",
	"gsm":                     "ffe5e5ecfe5c8fbf9f80bf2473b7fcf0946fb4d1adef28085dda8812d258926d",
	"ispell":                  "8a4ad7649232be93c9002b0772834526b395346299473cdc43058a95e77129ea",
	"patricia":                "fb1a693890bc0b730375a403a1b437c4e82b2984eb09f7a9604e15eb20ad3f00",
	"pgp":                     "e018820ab9e0712db239bc59ccdb45ff23f98003dfd58a774802cfb1b2b00fc4",
	"qsort":                   "71ced180f73dd09e93614317bffea14d9e4eba1590ae61be7d9dee351da8cc49",
	"rijndael":                "ac17efa1e6952fa12ab0649d7de5e13e0242d773342017b668b7009cd390199e",
	"rsynth":                  "d2719e080781d521a68d92371cc7709cccd996601657a2a8d4eed49dbadf4075",
	"sha":                     "8f5373713adb70178d639b47e7b1eb72ae714a7464ad94fbb4cc1fd5e18f4752",
	"stringsearch":            "ecfd20a961024201fd2ddb8195d0cfee0a107c15dff92a3734cfa7671b093170",
	"susan":                   "f50e9fd5b7ae53f3b0402f8fb597ccf0d25ba58658765fc1ecb61ed9b798d807",
	"typeset":                 "f98157a0087223f0816594f2a7db746c9d4dfbf42b9dbd4b897d8b91c5c05531",
	"unscaled/429.mcf":        "31f2dcb089500503aa341aa5bdc9bc90ae666fea4b4a806742d8205f1a70d7c6",
	"unscaled/433.milc":       "488933f3b8b6ce9f2f8efa2238acd5bb2bf29863c6719a1c68768283527b45f5",
	"unscaled/462.libquantum": "7b8ca6bb74dda1f53654f07196e0a65d7572979901c8c550a0cfd9e518dc1f11",
	"unscaled/482.sphinx3":    "170bcea8b21eae090296b950f8782f9af01708557d2952c6825df0a6937c88d0",
}

// TestPrintGolden: the printed text of every SPEC-like, MiBench-like and
// paper-scale profile, and of the fixture, is unchanged; the printed text
// reparses to itself; and the single-instruction spellings (FormatInst,
// Namer.Inst) are unchanged on the fixture.
func TestPrintGolden(t *testing.T) {
	suites := [][]workload.Profile{workload.SPECLike(), workload.MiBenchLike(), workload.UnscaledSmall()}
	for si, suite := range suites {
		for _, p := range suite {
			key := p.Name
			if si == 2 {
				key = "unscaled/" + p.Name
			}
			m := workload.Build(p)
			text := ir.FormatModule(m)
			sum := sha256.Sum256([]byte(text))
			got := hex.EncodeToString(sum[:])
			if want := goldenProfileDigests[key]; got != want {
				t.Errorf("%q: FormatModule digest %s, want %s", key, got, want)
			}
			m2, err := ir.ParseModule(m.Name, text)
			if err != nil {
				t.Fatalf("%q: reparse: %v", key, err)
			}
			if ir.FormatModule(m2) != text {
				t.Errorf("%q: print(parse(print(m))) != print(m)", key)
			}
		}
	}

	m, err := ir.ParseModule("fixture", goldenFixture)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	if got := ir.FormatModule(m); got != goldenFixturePrinted {
		t.Errorf("fixture printed as\n%s\nwant\n%s", got, goldenFixturePrinted)
	}
	var insts, named strings.Builder
	for _, f := range m.Funcs {
		nm := ir.NewNamer()
		for _, b := range f.Blocks {
			named.WriteString(nm.Label(b))
			named.WriteString(":\n")
			for _, in := range b.Insts {
				insts.WriteString(ir.FormatInst(in))
				insts.WriteByte('\n')
				named.WriteString(nm.Inst(in))
				named.WriteByte('\n')
			}
		}
	}
	if got := insts.String(); got != goldenFixtureInsts {
		t.Errorf("fixture FormatInst lines\n%s\nwant\n%s", got, goldenFixtureInsts)
	}
	if got := named.String(); got != goldenFixtureNamed {
		t.Errorf("fixture Namer lines\n%s\nwant\n%s", got, goldenFixtureNamed)
	}

	// Clearing and clashing names exercises the namer's numbering and
	// collision suffixes for params, blocks and instructions.
	eh := m.FuncByName("eh")
	unnameEH(eh)
	if got := ir.FormatFunc(eh); got != goldenUnnamedPrinted {
		t.Errorf("unnamed @eh printed as\n%s\nwant\n%s", got, goldenUnnamedPrinted)
	}
}

// unnameEH drops the names of @eh's parameter, second block and first
// invoke result, and renames its third block to the label the namer will
// hand the second one.
func unnameEH(f *ir.Func) {
	f.Params[0].SetName("")
	f.Blocks[1].SetName("")
	f.Blocks[2].SetName("bb1")
	f.Blocks[1].Insts[0].SetName("")
}

const goldenFixturePrinted = `; module fixture
@str = internal global [6 x i8] bytes "68656c6c6f00"
@zeros = global [4 x i32] zeroinitializer
@ti = global i8 zeroinitializer
@pair = internal global {i32, f64} bytes "0100000000000000000000000000f03f"
@nested = global [2 x {i8, [3 x i16]}] zeroinitializer

declare i32 @printf(i8*, ...)

declare void @ext(i64)

declare i32 @anyargs(...)

declare {i32, f64}* @mk(i8**, [4 x i32]*)

define internal f64 @floats(f64 %x, f32 %y) {
entry:
  %a = fadd f64 %x, 0.1
  %b = fsub f64 %a, 1e+100
  %c = fmul f64 %b, -2.5e-10
  %d = fdiv f64 %c, +inf
  %e = frem f64 %d, -inf
  %f = fadd f64 %e, nan
  %g = fadd f64 %f, 3.0
  %h = fadd f64 %g, 0.0
  %i = fadd f64 %h, -0.0
  %j = fadd f64 %i, 5e-324
  %k = fadd f64 %j, 1.7976931348623157e+308
  %l = fadd f64 %k, 7.0
  %m = fadd f64 %l, 1.2345678901234568e+20
  %n = fadd f64 %m, 1e-07
  %y2 = fpext f32 %y to f64
  %z = fptrunc f64 %n to f32
  %fl = fadd f32 %z, 0.10000000149011612
  %fi = fptosi f64 %n to i32
  %fu = fptoui f64 %n to i64
  %s = sitofp i32 %fi to f64
  %u = uitofp i64 %fu to f64
  %cmp = fcmp olt f64 %s, %u
  %cmp2 = fcmp oeq f32 %fl, 1.5
  %both = and i1 %cmp, %cmp2
  %r = select i1 %both, f64 %s, f64 %y2
  ret f64 %r
}

define i64 @ints(i64 %a, i32 %b, i1 %c, i8* %p, i64 %0, i64 (i64)* %fp) {
entry:
  %1 = add i64 %a, 1
  %0.1 = sub i64 %a, 2
  %m = mul i64 %a, -9223372036854775808
  %sd = sdiv i64 %m, -1
  %ud = udiv i64 %sd, %a
  %sr = srem i64 %ud, 3
  %ur = urem i64 %sr, 5
  %sh = shl i64 %ur, 1
  %lr = lshr i64 %sh, 2
  %ar = ashr i64 %lr, 3
  %an = and i64 %ar, 255
  %o = or i64 %an, 256
  %x = xor i64 %o, -1
  %t = trunc i64 %x to i16
  %z = zext i16 %t to i64
  %s = sext i32 %b to i64
  %pi = ptrtoint i8* %p to i64
  %ip = inttoptr i64 %pi to i32*
  %bc = bitcast i32* %ip to i8*
  %flag = and i1 %c, true
  %flag2 = or i1 %flag, false
  %w = add i8 -128, 127
  %ind = call i64 %fp(i64 %z)
  %cmp = icmp sgt i64 %ind, 0
  br i1 %cmp, label %then, label %else
then:
  %v = add i64 %z, %s
  br label %join
else:
  %cmp3 = icmp ule i64 %pi, 10
  br i1 %cmp3, label %join, label %other
other:
  unreachable
join:
  %phi = phi i64 [ %v, %then ], [ 0, %else ]
  switch i64 %phi, label %done [ i64 0, label %a0  i64 -1, label %a1 ]
a0:
  ret i64 %phi
a1:
  ret i64 1
done:
  ret i64 %0.1
}

define void @mem(i64 %n, i8* %fmt) {
entry:
  %slot = alloca i64
  %arr = alloca [4 x i32]
  %st = alloca {i32, f64}
  %pp = alloca i8*
  store i64 %n, i64* %slot
  %ld = load i64, i64* %slot
  %g0 = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 %ld
  %g1 = getelementptr {i32, f64}, {i32, f64}* %st, i32 0, i32 1
  %g2 = getelementptr [4 x i32], [4 x i32]* @zeros, i32 0, i32 2
  %g3 = getelementptr [2 x {i8, [3 x i16]}], [2 x {i8, [3 x i16]}]* @nested, i64 0, i64 1, i32 1, i64 2
  %g4 = getelementptr i8, i8* %fmt, i64 3
  store f64 2.5, f64* %g1
  store i32 7, i32* %g0
  store i8* null, i8** %pp
  store i16 undef, i16* %g3
  %s = getelementptr [6 x i8], [6 x i8]* @str, i64 0, i64 0
  %r = call i32 @printf(i8* %s, i64 %n, f64 1.0, i8* %g4)
  %r2 = call i32 @anyargs()
  %mk = call {i32, f64}* @mk(i8** %pp, [4 x i32]* @zeros)
  call void @ext(i64 %ld)
  ret void
}

define void @eh(i64 %x) {
entry:
  invoke void @ext(i64 %x) to label %ok unwind label %lpad
ok:
  %r = invoke i32 @anyargs(i64 %x) to label %ok2 unwind label %lpad2
ok2:
  ret void
lpad:
  %lp = landingpad cleanup
  resume token %lp
lpad2:
  %lp2 = landingpad catch @ti cleanup catch @str
  resume token %lp2
}
`

const goldenUnnamedPrinted = `define void @eh(i64 %0) {
entry:
  invoke void @ext(i64 %0) to label %bb1 unwind label %lpad
bb1:
  %2 = invoke i32 @anyargs(i64 %0) to label %bb1.1 unwind label %lpad2
bb1.1:
  ret void
lpad:
  %lp = landingpad cleanup
  resume token %lp
lpad2:
  %lp2 = landingpad catch @ti cleanup catch @str
  resume token %lp2
}
`

const goldenFixtureInsts = `%a = fadd f64 %x, 0.1
%b = fsub f64 %a, 1e+100
%c = fmul f64 %b, -2.5e-10
%d = fdiv f64 %c, +inf
%e = frem f64 %d, -inf
%f = fadd f64 %e, nan
%g = fadd f64 %f, 3.0
%h = fadd f64 %g, 0.0
%i = fadd f64 %h, -0.0
%j = fadd f64 %i, 5e-324
%k = fadd f64 %j, 1.7976931348623157e+308
%l = fadd f64 %k, 7.0
%m = fadd f64 %l, 1.2345678901234568e+20
%n = fadd f64 %m, 1e-07
%y2 = fpext f32 %y to f64
%z = fptrunc f64 %n to f32
%fl = fadd f32 %z, 0.10000000149011612
%fi = fptosi f64 %n to i32
%fu = fptoui f64 %n to i64
%s = sitofp i32 %fi to f64
%u = uitofp i64 %fu to f64
%cmp = fcmp olt f64 %s, %u
%cmp2 = fcmp oeq f32 %fl, 1.5
%both = and i1 %cmp, %cmp2
%r = select i1 %both, f64 %s, f64 %y2
ret f64 %r
%0 = add i64 %a, 1
%0 = sub i64 %a, 2
%m = mul i64 %a, -9223372036854775808
%sd = sdiv i64 %m, -1
%ud = udiv i64 %sd, %a
%sr = srem i64 %ud, 3
%ur = urem i64 %sr, 5
%sh = shl i64 %ur, 1
%lr = lshr i64 %sh, 2
%ar = ashr i64 %lr, 3
%an = and i64 %ar, 255
%o = or i64 %an, 256
%x = xor i64 %o, -1
%t = trunc i64 %x to i16
%z = zext i16 %t to i64
%s = sext i32 %b to i64
%pi = ptrtoint i8* %p to i64
%ip = inttoptr i64 %pi to i32*
%bc = bitcast i32* %ip to i8*
%flag = and i1 %c, true
%flag2 = or i1 %flag, false
%w = add i8 -128, 127
%ind = call i64 %fp(i64 %z)
%cmp = icmp sgt i64 %ind, 0
br i1 %cmp, label %then, label %else
%v = add i64 %z, %s
br label %join
%cmp3 = icmp ule i64 %pi, 10
br i1 %cmp3, label %join, label %other
unreachable
%phi = phi i64 [ %v, %then ], [ 0, %else ]
switch i64 %phi, label %done [ i64 0, label %a0  i64 -1, label %a1 ]
ret i64 %phi
ret i64 1
ret i64 %0
%slot = alloca i64
%arr = alloca [4 x i32]
%st = alloca {i32, f64}
%pp = alloca i8*
store i64 %n, i64* %slot
%ld = load i64, i64* %slot
%g0 = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 %ld
%g1 = getelementptr {i32, f64}, {i32, f64}* %st, i32 0, i32 1
%g2 = getelementptr [4 x i32], [4 x i32]* @zeros, i32 0, i32 2
%g3 = getelementptr [2 x {i8, [3 x i16]}], [2 x {i8, [3 x i16]}]* @nested, i64 0, i64 1, i32 1, i64 2
%g4 = getelementptr i8, i8* %fmt, i64 3
store f64 2.5, f64* %g1
store i32 7, i32* %g0
store i8* null, i8** %pp
store i16 undef, i16* %g3
%s = getelementptr [6 x i8], [6 x i8]* @str, i64 0, i64 0
%r = call i32 @printf(i8* %s, i64 %n, f64 1.0, i8* %g4)
%r2 = call i32 @anyargs()
%mk = call {i32, f64}* @mk(i8** %pp, [4 x i32]* @zeros)
call void @ext(i64 %ld)
ret void
invoke void @ext(i64 %x) to label %ok unwind label %lpad
%r = invoke i32 @anyargs(i64 %x) to label %ok2 unwind label %lpad2
ret void
%lp = landingpad cleanup
resume token %lp
%lp2 = landingpad catch @ti cleanup catch @str
resume token %lp2
`

const goldenFixtureNamed = `entry:
%a = fadd f64 %x, 0.1
%b = fsub f64 %a, 1e+100
%c = fmul f64 %b, -2.5e-10
%d = fdiv f64 %c, +inf
%e = frem f64 %d, -inf
%f = fadd f64 %e, nan
%g = fadd f64 %f, 3.0
%h = fadd f64 %g, 0.0
%i = fadd f64 %h, -0.0
%j = fadd f64 %i, 5e-324
%k = fadd f64 %j, 1.7976931348623157e+308
%l = fadd f64 %k, 7.0
%m = fadd f64 %l, 1.2345678901234568e+20
%n = fadd f64 %m, 1e-07
%y2 = fpext f32 %y to f64
%z = fptrunc f64 %n to f32
%fl = fadd f32 %z, 0.10000000149011612
%fi = fptosi f64 %n to i32
%fu = fptoui f64 %n to i64
%s = sitofp i32 %fi to f64
%u = uitofp i64 %fu to f64
%cmp = fcmp olt f64 %s, %u
%cmp2 = fcmp oeq f32 %fl, 1.5
%both = and i1 %cmp, %cmp2
%r = select i1 %both, f64 %s, f64 %y2
ret f64 %r
entry:
%0 = add i64 %a, 1
%0.1 = sub i64 %a, 2
%m = mul i64 %a, -9223372036854775808
%sd = sdiv i64 %m, -1
%ud = udiv i64 %sd, %a
%sr = srem i64 %ud, 3
%ur = urem i64 %sr, 5
%sh = shl i64 %ur, 1
%lr = lshr i64 %sh, 2
%ar = ashr i64 %lr, 3
%an = and i64 %ar, 255
%o = or i64 %an, 256
%x = xor i64 %o, -1
%t = trunc i64 %x to i16
%z = zext i16 %t to i64
%s = sext i32 %b to i64
%pi = ptrtoint i8* %p to i64
%ip = inttoptr i64 %pi to i32*
%bc = bitcast i32* %ip to i8*
%flag = and i1 %c, true
%flag2 = or i1 %flag, false
%w = add i8 -128, 127
%ind = call i64 %fp(i64 %z)
%cmp = icmp sgt i64 %ind, 0
br i1 %cmp, label %then, label %else
then:
%v = add i64 %z, %s
br label %join
else:
%cmp3 = icmp ule i64 %pi, 10
br i1 %cmp3, label %join, label %other
other:
unreachable
join:
%phi = phi i64 [ %v, %then ], [ 0, %else ]
switch i64 %phi, label %done [ i64 0, label %a0  i64 -1, label %a1 ]
a0:
ret i64 %phi
a1:
ret i64 1
done:
ret i64 %0.1
entry:
%slot = alloca i64
%arr = alloca [4 x i32]
%st = alloca {i32, f64}
%pp = alloca i8*
store i64 %n, i64* %slot
%ld = load i64, i64* %slot
%g0 = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 %ld
%g1 = getelementptr {i32, f64}, {i32, f64}* %st, i32 0, i32 1
%g2 = getelementptr [4 x i32], [4 x i32]* @zeros, i32 0, i32 2
%g3 = getelementptr [2 x {i8, [3 x i16]}], [2 x {i8, [3 x i16]}]* @nested, i64 0, i64 1, i32 1, i64 2
%g4 = getelementptr i8, i8* %fmt, i64 3
store f64 2.5, f64* %g1
store i32 7, i32* %g0
store i8* null, i8** %pp
store i16 undef, i16* %g3
%s = getelementptr [6 x i8], [6 x i8]* @str, i64 0, i64 0
%r = call i32 @printf(i8* %s, i64 %n, f64 1.0, i8* %g4)
%r2 = call i32 @anyargs()
%mk = call {i32, f64}* @mk(i8** %pp, [4 x i32]* @zeros)
call void @ext(i64 %ld)
ret void
entry:
invoke void @ext(i64 %x) to label %ok unwind label %lpad
ok:
%r = invoke i32 @anyargs(i64 %x) to label %ok2 unwind label %lpad2
ok2:
ret void
lpad:
%lp = landingpad cleanup
resume token %lp
lpad2:
%lp2 = landingpad catch @ti cleanup catch @str
resume token %lp2
`

// parseErrorCases pins the exact error for each malformed input.
var parseErrorCases = []struct {
	name, src, err string
}{
	{"bad int width zero", "define i0 @f() {\nentry:\n  ret void\n}\n", "line 1: bad type \"i0\""},
	{"bad int width large", "declare void @f(i65)\n", "line 1: bad type \"i65\""},
	{"bad float width", "\n\ndefine f16 @f() {\n}\n", "line 3: bad type \"f16\""},
	{"unknown type", "define void @f() {\nentry:\n  %x = add foo 1, 2\n  ret void\n}\n", "line 3: bad type \"foo\""},
	{"unterminated string", "@s = global [2 x i8] bytes \"abcd\n", "line 1: unterminated string"},
	{"bad hex", "@s = global [2 x i8] bytes \"zz\"\n", "line 2: bad hex initializer: encoding/hex: invalid byte: U+007A 'z'"},
	{"global without initializer", "@s = global i8\n", "line 2: expected initializer"},
	{"unknown opcode", "define void @f() {\nentry:\n  %x = frob i32 1\n  ret void\n}\n", "line 3: unknown instruction \"frob\""},
	{"undefined label", "define void @f() {\nentry:\n  br label %nowhere\n}\n", "in f: branch to undefined label %nowhere"},
	{"undefined value", "define i32 @f() {\nentry:\n  %a = add i32 %b, 1\n  ret i32 %a\n}\n", "line 3: undefined value %b"},
	{"undefined symbol", "define i8* @f() {\nentry:\n  ret i8* @nope\n}\n", "line 3: undefined symbol @nope"},
	{"undefined callee", "define void @f() {\nentry:\n  call void @nope()\n  ret void\n}\n", "line 3: call of undefined function @nope"},
	{"indirect callee before definition", "define void @f() {\nentry:\n  call void %g()\n  ret void\n}\n", "line 3: indirect callee %g must be defined before use"},
	{"duplicate label", "define void @f() {\nentry:\n  br label %entry\nentry:\n  ret void\n}\n", "line 4: duplicate label \"entry\""},
	{"duplicate function", "declare void @f()\n\ndeclare void @f()\n", "line 3: duplicate function @f"},
	{"redefinition", "define i32 @f(i32 %a) {\nentry:\n  %a = add i32 1, 2\n  ret i32 %a\n}\n", "line 4: redefinition of %a"},
	{"void result name", "declare void @g()\n\ndefine void @f() {\nentry:\n  %x = call void @g()\n  ret void\n}\n", "line 5: void instruction cannot have a result name"},
	{"stray character", "define void @f() {\nentry:\n  ret void\n}\n#\n", "line 5: unexpected character \"#\""},
	{"empty identifier", "define void @f() {\nentry:\n  ret void % \n}\n", "line 3: empty identifier after \"%\""},
	{"not a top-level item", "\n\nfoo\n", "line 3: expected global or function, got foo"},
	{"instruction outside block", "define void @f() {\n  ret void\n}\n", "line 2: instruction outside block"},
	{"unknown predicate", "define i1 @f(i32 %a) {\nentry:\n  %c = icmp huh i32 %a, 1\n  ret i1 %c\n}\n", "line 3: unknown predicate \"huh\""},
	{"switch case type", "define void @f(i32 %a) {\nentry:\n  switch i32 %a, label %entry [ i64 1, label %entry ]\n}\n", "line 3: switch case type i64 does not match condition i32"},
	{"cast without to", "define i64 @f(i32 %a) {\nentry:\n  %b = zext i32 %a i64\n  ret i64 %b\n}\n", "line 3: expected 'to' in cast"},
	{"null for non-pointer", "define i32 @n() {\nentry:\n  ret i32 null\n}\n", "line 3: null literal for non-pointer type i32"},
	{"integer for pointer", "define i32* @n() {\nentry:\n  ret i32* 5\n}\n", "line 3: integer literal for non-integer type i32*"},
	{"integer overflow", "define i64 @n() {\nentry:\n  ret i64 99999999999999999999999\n}\n", "line 3: bad integer \"99999999999999999999999\""},
	{"bad float", "define f64 @n() {\nentry:\n  ret f64 1.2.3\n}\n", "line 3: bad float \"1.2.3\""},
	{"missing label keyword", "define void @f() {\nentry:\n  br %entry\n}\n", "line 3: expected type, got %entry"},
	{"missing array length", "@g = global [x x i8] zeroinitializer\n", "line 1: expected array length"},
	{"result without equals", "define i32 @f() {\nentry:\n  %x add i32 1, 2\n  ret i32 %x\n}\n", "line 3: expected \"=\", got add"},
	{"bad gep", "define i8* @f(i8* %p) {\nentry:\n  %q = getelementptr i8, i8* %p, i32 0, i32 1\n  ret i8* %q\n}\n", "line 4: GEP drills into non-aggregate i8"},
	{"catch without typeinfo", "define void @f() {\nentry:\n  %l = landingpad catch %x\n  unreachable\n}\n", "line 3: expected @typeinfo after catch"},
	{"phi without block", "define i32 @f() {\nentry:\n  %p = phi i32 [ 1, 2 ]\n  ret i32 %p\n}\n", "line 3: expected block name in phi, got 2"},
	{"truncated body", "define void @f() {\nentry:\n  ret void\n", "line 4: expected opcode, got end of input"},
	{"lex error after syntax error", "define void @f() {\nentry:\n  ret void\n}\nbogus\n\n!\n", "line 7: unexpected character \"!\""},
	{"lex error after bad body", "define void @f() {\nentry:\n  %x = frob\n}\n\n!\n", "line 6: unexpected character \"!\""},
}

// TestParseErrorsGolden: every malformed input is rejected with exactly its
// recorded error, line number included. A lexical error anywhere in the
// source is reported ahead of a syntax error earlier in it.
func TestParseErrorsGolden(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := ir.ParseModule("bad", c.src)
		if err == nil {
			t.Errorf("%s: parsed without error", c.name)
			continue
		}
		if err.Error() != c.err {
			t.Errorf("%s: error %q, want %q", c.name, err.Error(), c.err)
		}
	}
}
