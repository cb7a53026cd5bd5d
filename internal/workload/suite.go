package workload

import (
	"fmt"
	"math"
	"math/rand"

	"fmsa/internal/ir"
)

// Profile describes one synthetic benchmark: its population size, function
// size distribution and clone-family mix. The SPEC-like and MiBench-like
// profiles are calibrated from Tables I and II of the paper (function
// counts and sizes are scaled down — see the Scale* constants — to keep the
// quadratic alignment tractable in tests; the similarity mix is chosen per
// suite so the relative behaviour of the three techniques matches the
// paper).
type Profile struct {
	// Name of the benchmark (paper names are reused).
	Name string
	// NumFuncs is the (already scaled) number of functions.
	NumFuncs int
	// AvgSize and MaxSize bound the per-function instruction counts
	// (already scaled).
	AvgSize, MaxSize int
	// Identical, ConstVar, TypeVar, CFGVar, Partial and Reorder are the
	// probabilities that a generated function is the corresponding clone
	// kind of an earlier template; the remainder are unrelated functions.
	//
	// Identical clones are mergeable by all three techniques; ConstVar
	// clones (same shape, different constants) additionally by SOA and
	// FMSA; the remaining kinds (different signatures, CFGs or lengths)
	// only by FMSA — mirroring which real-world clone classes each
	// technique can express (§II, §VI-A).
	Identical, ConstVar, TypeVar, CFGVar, Partial, Reorder float64
	// TwinSize, when positive, guarantees one pair of large CFG-variant
	// clones of roughly this instruction count (the rijndael
	// encrypt/decrypt pair of §V-B).
	TwinSize int
	// InternalFrac is the fraction of functions with internal linkage.
	InternalFrac float64
	// Seed drives the whole benchmark's generation.
	Seed int64
}

// Scale factors applied when deriving profiles from the paper's tables.
const (
	// ScaleFuncs divides the paper's function counts.
	ScaleFuncs = 4
	// ScaleSize divides the paper's function sizes.
	ScaleSize = 8
)

func scaled(n, div, min int) int {
	v := n / div
	if v < min {
		return min
	}
	return v
}

// specProfile builds a Profile from Table I numbers plus a similarity mix.
func specProfile(name string, fns, avg, max int, ident, cnst, typ, cfg, part, reord float64, seed int64) Profile {
	return Profile{
		Name:      name,
		NumFuncs:  scaled(fns, ScaleFuncs, 6),
		AvgSize:   scaled(avg, ScaleSize, 8),
		MaxSize:   scaled(max, ScaleSize, 24),
		Identical: ident, ConstVar: cnst, TypeVar: typ, CFGVar: cfg, Partial: part, Reorder: reord,
		InternalFrac: 0.7,
		Seed:         seed,
	}
}

// SPECLike returns the 19 benchmark profiles mirroring Table I. The clone
// mixes encode the paper's observations: the templated C++ benchmarks
// (dealII, xalancbmk, omnetpp, soplex, povray) carry many identical and
// near-identical clones; several C benchmarks (libquantum, sphinx3, milc)
// carry type- and CFG-variant clones invisible to the baselines; lbm has
// nothing to merge.
func SPECLike() []Profile {
	return []Profile{
		specProfile("400.perlbench", 1699, 125, 12501, 0.004, 0.006, 0.018, 0.014, 0.014, 0.004, 1),
		specProfile("401.bzip2", 74, 206, 5997, 0.000, 0.000, 0.030, 0.040, 0.080, 0.000, 2),
		specProfile("403.gcc", 4541, 128, 20688, 0.005, 0.006, 0.020, 0.014, 0.014, 0.004, 3),
		specProfile("429.mcf", 24, 87, 297, 0.000, 0.010, 0.015, 0.010, 0.010, 0.000, 4),
		specProfile("433.milc", 235, 68, 416, 0.002, 0.010, 0.045, 0.035, 0.025, 0.008, 5),
		specProfile("444.namd", 99, 571, 1698, 0.002, 0.006, 0.012, 0.008, 0.010, 0.000, 6),
		specProfile("445.gobmk", 2511, 43, 3140, 0.006, 0.008, 0.016, 0.012, 0.012, 0.004, 7),
		specProfile("447.dealII", 7380, 61, 4856, 0.030, 0.020, 0.042, 0.028, 0.028, 0.010, 8),
		specProfile("450.soplex", 1035, 73, 1719, 0.020, 0.015, 0.038, 0.028, 0.028, 0.008, 9),
		specProfile("453.povray", 1585, 98, 5324, 0.012, 0.010, 0.028, 0.020, 0.022, 0.006, 10),
		specProfile("456.hmmer", 487, 100, 1511, 0.002, 0.005, 0.016, 0.012, 0.012, 0.002, 11),
		specProfile("458.sjeng", 134, 145, 1252, 0.000, 0.004, 0.012, 0.010, 0.012, 0.000, 12),
		specProfile("462.libquantum", 95, 57, 626, 0.000, 0.008, 0.055, 0.045, 0.028, 0.008, 13),
		specProfile("464.h264ref", 523, 171, 5445, 0.002, 0.005, 0.016, 0.012, 0.012, 0.002, 14),
		specProfile("470.lbm", 17, 123, 680, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 15),
		specProfile("471.omnetpp", 1406, 27, 611, 0.022, 0.016, 0.040, 0.028, 0.028, 0.010, 16),
		specProfile("473.astar", 101, 67, 584, 0.000, 0.004, 0.014, 0.010, 0.012, 0.000, 17),
		specProfile("482.sphinx3", 326, 80, 924, 0.002, 0.008, 0.055, 0.042, 0.028, 0.008, 18),
		specProfile("483.xalancbmk", 14191, 39, 3809, 0.030, 0.020, 0.042, 0.028, 0.028, 0.010, 19),
	}
}

// Quick subsamples a suite to every fourth profile: the corpora of the
// quick smoke runs (fmsa-bench -quick) and of the cross-check tests that
// stand in for them. Of SPECLike it keeps 400.perlbench, 433.milc,
// 450.soplex, 462.libquantum and 473.astar.
func Quick(ps []Profile) []Profile {
	var out []Profile
	for i, p := range ps {
		if i%4 == 0 {
			out = append(out, p)
		}
	}
	return out
}

// UnscaledSmall returns paper-scale (ScaleFuncs=ScaleSize=1) profiles for
// the suite's smaller benchmarks. At full function sizes the quadratic
// Needleman–Wunsch cost dominates the pipeline the way Fig. 13 reports;
// the scaled suite shrinks alignment 64× but code generation only 8×, so
// only the unscaled profiles reproduce the paper's phase breakdown shape.
func UnscaledSmall() []Profile {
	full := func(name string, fns, avg, max int, ident, cnst, typ, cfg, part, reord float64, seed int64) Profile {
		return Profile{
			Name:      name,
			NumFuncs:  fns,
			AvgSize:   avg,
			MaxSize:   max,
			Identical: ident, ConstVar: cnst, TypeVar: typ, CFGVar: cfg, Partial: part, Reorder: reord,
			InternalFrac: 0.7,
			Seed:         seed,
		}
	}
	return []Profile{
		full("429.mcf", 24, 87, 297, 0.000, 0.010, 0.015, 0.010, 0.010, 0.000, 4),
		full("433.milc", 235, 68, 416, 0.002, 0.010, 0.045, 0.035, 0.025, 0.008, 5),
		full("462.libquantum", 95, 57, 626, 0.000, 0.008, 0.055, 0.045, 0.028, 0.008, 13),
		full("482.sphinx3", 326, 80, 924, 0.002, 0.008, 0.055, 0.042, 0.028, 0.008, 18),
	}
}

// mibenchProfile builds a Profile from Table II numbers. MiBench programs
// are tiny; counts are scaled less aggressively.
func mibenchProfile(name string, fns, avg, max int, ident, typ, cfg, part float64, seed int64) Profile {
	nf := fns / 2
	if nf < 2 {
		nf = 2
	}
	return Profile{
		Name:      name,
		NumFuncs:  nf,
		AvgSize:   scaled(avg, ScaleSize, 8),
		MaxSize:   scaled(max, ScaleSize, 16),
		Identical: ident, TypeVar: typ, CFGVar: cfg, Partial: part,
		InternalFrac: 0.5,
		Seed:         seed,
	}
}

// MiBenchLike returns the 23 benchmark profiles mirroring Table II. Most
// programs have no mergeable similarity at all; rijndael carries one large
// near-identical pair (encrypt/decrypt), ghostscript and typeset carry many.
func MiBenchLike() []Profile {
	profiles := []Profile{
		mibenchProfile("CRC32", 4, 25, 39, 0, 0, 0, 0, 101),
		mibenchProfile("FFT", 7, 50, 144, 0, 0, 0, 0, 102),
		mibenchProfile("adpcm_c", 3, 73, 100, 0, 0, 0, 0, 103),
		mibenchProfile("adpcm_d", 3, 73, 100, 0, 0, 0, 0, 104),
		mibenchProfile("basicmath", 5, 71, 232, 0, 0, 0, 0, 105),
		mibenchProfile("bitcount", 19, 22, 63, 0, 0.10, 0.05, 0.10, 106),
		mibenchProfile("blowfish_d", 8, 245, 824, 0, 0, 0, 0, 107),
		mibenchProfile("blowfish_e", 8, 245, 824, 0, 0, 0, 0, 108),
		mibenchProfile("jpeg_c", 322, 101, 1269, 0.004, 0.010, 0.008, 0.010, 109),
		mibenchProfile("dijkstra", 6, 33, 89, 0, 0, 0, 0, 110),
		mibenchProfile("jpeg_d", 310, 99, 1269, 0.004, 0.010, 0.008, 0.010, 111),
		mibenchProfile("ghostscript", 3446, 54, 4218, 0.004, 0.022, 0.016, 0.018, 112),
		mibenchProfile("gsm", 69, 97, 737, 0, 0.030, 0.025, 0.030, 113),
		mibenchProfile("ispell", 84, 106, 1082, 0, 0.018, 0.014, 0.018, 114),
		mibenchProfile("patricia", 5, 77, 167, 0, 0, 0, 0, 115),
		mibenchProfile("pgp", 310, 89, 1845, 0, 0.010, 0.008, 0.012, 116),
		mibenchProfile("qsort", 2, 50, 89, 0, 0, 0, 0, 117),
		mibenchProfile("rijndael", 7, 472, 1247, 0, 0, 0, 0, 118),
		mibenchProfile("rsynth", 46, 97, 778, 0, 0.005, 0.005, 0.005, 119),
		mibenchProfile("sha", 7, 53, 150, 0, 0, 0, 0, 120),
		mibenchProfile("stringsearch", 10, 48, 99, 0, 0.06, 0.03, 0.03, 121),
		mibenchProfile("susan", 19, 292, 1212, 0, 0.015, 0.015, 0.015, 122),
		mibenchProfile("typeset", 362, 354, 12125, 0.004, 0.014, 0.010, 0.016, 123),
	}
	for i := range profiles {
		if profiles[i].Name == "rijndael" {
			// The encrypt/decrypt twins dominate rijndael's code (§V-B:
			// "the two functions contain over 70% of the code").
			profiles[i].TwinSize = scaled(1247, ScaleSize, 16)
		}
	}
	return profiles
}

// Build synthesizes the module for a profile, including a driver function
// (@main) that exercises every generated function so the whole call graph
// is live under the interpreter.
func Build(p Profile) *ir.Module {
	m := ir.NewModule(p.Name)
	Externs(m)
	rng := rand.New(rand.NewSource(p.Seed))

	type template struct {
		spec FuncSpec
	}
	var templates []template
	var funcs []*ir.Func

	for i := 0; i < p.NumFuncs; i++ {
		r := rng.Float64()
		var spec FuncSpec
		fresh := len(templates) == 0
		c1 := p.Identical
		c2 := c1 + p.ConstVar
		c3 := c2 + p.TypeVar
		c4 := c3 + p.CFGVar
		c5 := c4 + p.Partial
		c6 := c5 + p.Reorder
		switch {
		case !fresh && r < c1:
			spec = templates[rng.Intn(len(templates))].spec
		case !fresh && r < c2:
			spec = templates[rng.Intn(len(templates))].spec
			spec.ConstSalt += int64(rng.Intn(5) + 1)
		case !fresh && r < c3:
			spec = templates[rng.Intn(len(templates))].spec
			spec.Scalar = otherScalar(spec.Scalar)
		case !fresh && r < c4:
			spec = templates[rng.Intn(len(templates))].spec
			spec.Guard = !spec.Guard
		case !fresh && r < c5:
			spec = templates[rng.Intn(len(templates))].spec
			spec.ConstSalt += int64(rng.Intn(5) + 1)
			spec.DropMod = 9 + rng.Intn(8)
		case !fresh && r < c6:
			spec = templates[rng.Intn(len(templates))].spec
			spec.ReorderParams = !spec.ReorderParams
		default:
			spec = freshSpec(p, rng, i)
			templates = append(templates, template{spec: spec})
		}
		spec.Name = fmt.Sprintf("f%03d", i)
		spec.Internal = rng.Float64() < p.InternalFrac
		funcs = append(funcs, Generate(m, spec))
	}

	if p.TwinSize > 0 {
		// One guaranteed pair of large CFG-variant clones (rijndael's
		// encrypt/decrypt, §V-B).
		regions := p.TwinSize / 24
		if regions < 2 {
			regions = 2
		}
		if regions > 10 {
			regions = 10
		}
		twin := FuncSpec{
			Seed:        p.Seed*31337 + 7,
			Scalar:      ir.I64(),
			NumParams:   3,
			Regions:     regions,
			OpsPerBlock: p.TwinSize / (regions * 2),
			Internal:    true,
			Name:        "encrypt",
		}
		funcs = append(funcs, Generate(m, twin))
		twin.Name = "decrypt"
		twin.Guard = true
		twin.ConstSalt += 3
		funcs = append(funcs, Generate(m, twin))
	}

	buildDriver(m, funcs, p.Seed)
	return m
}

// freshSpec draws a new template: size from a clamped lognormal around
// AvgSize, structural parameters derived from it.
func freshSpec(p Profile, rng *rand.Rand, i int) FuncSpec {
	size := int(float64(p.AvgSize) * math.Exp(rng.NormFloat64()*0.7))
	if size < 6 {
		size = 6
	}
	if size > p.MaxSize {
		size = p.MaxSize
	}
	regions := size / 24
	if regions < 1 {
		regions = 1
	}
	if regions > 10 {
		regions = 10
	}
	ops := size / (regions * 2)
	if ops < 2 {
		ops = 2
	}
	scalars := []*ir.Type{ir.I32(), ir.I64(), ir.F32(), ir.F64()}
	return FuncSpec{
		Seed:        p.Seed*100003 + int64(i)*7919,
		Scalar:      scalars[rng.Intn(len(scalars))],
		NumParams:   rng.Intn(4) + 1,
		Regions:     regions,
		OpsPerBlock: ops,
		ConstSalt:   int64(rng.Intn(40)),
		VoidRet:     rng.Intn(6) == 0,
	}
}

// otherScalar swaps a scalar type for its sibling of the other width
// (i32↔i64, f32↔f64), the Fig. 1 mutation.
func otherScalar(t *ir.Type) *ir.Type {
	switch t {
	case ir.I32():
		return ir.I64()
	case ir.I64():
		return ir.I32()
	case ir.F32():
		return ir.F64()
	case ir.F64():
		return ir.F32()
	default:
		return ir.I64()
	}
}

// CallWeight returns the driver's call count for the i-th generated
// function. The distribution is heavily skewed, like real program profiles:
// ~3% of functions are very hot (200 calls), ~8% warm (40 calls), the rest
// cold (1 call). Runtime-impact experiments (Fig. 14, §V-D) depend on this
// skew — merging a cold function is free at runtime, merging a hot one is
// not.
func CallWeight(i int) int64 {
	h := (i*2654435761 + 97) % 97
	switch {
	case h < 3:
		return 200
	case h < 11:
		return 40
	default:
		return 1
	}
}

// buildDriver emits @main calling every generated function with
// deterministic arguments inside counted loops whose trip counts follow
// CallWeight, accumulating results into a sink.
func buildDriver(m *ir.Module, funcs []*ir.Func, seed int64) {
	main := m.NewFuncIn("main", ir.FuncOf(ir.I64()))
	entry := main.NewBlockIn("entry")
	bd := ir.NewBuilder(entry)
	buf := bd.Alloca(ir.ArrayOf(64, ir.I64()))
	bufPtr := bd.GEP(buf, ir.NewConstInt(ir.I64(), 0), ir.NewConstInt(ir.I64(), 0))
	acc := bd.Alloca(ir.I64())
	bd.Store(ir.NewConstInt(ir.I64(), 0), acc)
	cnt := bd.Alloca(ir.I64())

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, f := range funcs {
		args := make([]ir.Value, len(f.Params))
		for k, pt := range f.Sig().Fields {
			switch {
			case pt == ir.PointerTo(ir.I64()):
				args[k] = bufPtr
			case pt.IsInt():
				args[k] = ir.NewConstInt(pt, int64(rng.Intn(1000)))
			case pt.IsFloat():
				args[k] = ir.NewConstFloat(pt, float64(rng.Intn(100))/3)
			case pt.IsPointer():
				args[k] = ir.NewConstNull(pt)
			default:
				args[k] = ir.NewUndef(pt)
			}
		}
		weight := CallWeight(i)

		head := main.NewBlockIn(fmt.Sprintf("head%d", i))
		body := main.NewBlockIn(fmt.Sprintf("body%d", i))
		next := main.NewBlockIn(fmt.Sprintf("next%d", i))
		bd.Store(ir.NewConstInt(ir.I64(), 0), cnt)
		bd.Br(head)

		bd.SetBlock(head)
		cv := bd.Load(cnt)
		cond := bd.ICmp(ir.PredSLT, cv, ir.NewConstInt(ir.I64(), weight))
		bd.CondBr(cond, body, next)

		bd.SetBlock(body)
		call := bd.Call(f, args...)
		if call.Type() == ir.I64() {
			old := bd.Load(acc)
			sum := bd.Add(old, call)
			bd.Store(sum, acc)
		}
		cv2 := bd.Load(cnt)
		bd.Store(bd.Add(cv2, ir.NewConstInt(ir.I64(), 1)), cnt)
		bd.Br(head)

		bd.SetBlock(next)
	}
	out := bd.Load(acc)
	bd.Ret(out)
}
