package main

// The two batch workloads: a whole-program LTO merge of four fmir
// translation units (lto-t10) and the paper-scale textual corpora
// (paper-scale). Both time one operation as the full pipeline from input
// bytes to output bytes, check its output and read the phase breakdown back
// from the explore.Report each exploration returns.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fmsa/internal/baseline"
	"fmsa/internal/explore"
	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// corpus is one generated program as the program under test sees it:
// fmir translation units (lto-t10) or textual IR (paper-scale).
type corpus struct {
	name  string
	units [][]byte
	text  []byte
}

// batchSpec describes a batch workload: how to generate its corpora from a
// seed, the exploration options, and the timed pipeline for one corpus.
type batchSpec struct {
	setup    func(seed int64) ([]corpus, error)
	opts     func() explore.Options
	pipeline func(c corpus, opts explore.Options, tr *tracer, st *opStats) (*ir.Module, []byte, error)
	// unmerged rebuilds the module the pipeline starts from, for the
	// untimed interpreter reference.
	unmerged func(c corpus) (*ir.Module, error)
}

// opStats accumulates what one operation reports across its corpora.
type opStats struct {
	sizeBefore, sizeAfter int
	verifyDiags           int
	allocBytes            uint64
	reports               []*explore.Report
}

// ltoT10 is the 483.xalancbmk-class corpus (default seed 19, the
// BENCH_PR5 corpus) split into four fmir units and merged whole-program.
var ltoT10 = batchSpec{
	setup: func(seed int64) ([]corpus, error) {
		m := workload.Build(specProfile("483.xalancbmk"))
		relayout(m, seed, ltoSeed)
		tus, err := ir.SplitModule(m, 4)
		if err != nil {
			return nil, err
		}
		c := corpus{name: m.Name}
		for _, tu := range tus {
			b, err := wire.Encode(tu)
			if err != nil {
				return nil, err
			}
			c.units = append(c.units, b)
		}
		return []corpus{c}, nil
	},
	opts: func() explore.Options {
		o := explore.DefaultOptions()
		o.Threshold = 10
		o.Workers = 1
		o.Ranking = explore.RankExact
		return o
	},
	pipeline: ltoPipeline,
	unmerged: func(c corpus) (*ir.Module, error) { return decodeAndLink(c, newTracer(false)) },
}

// paperScale is the four workload.UnscaledSmall corpora at the paper's
// real function sizes, ingested and emitted as text.
var paperScale = batchSpec{
	setup: func(seed int64) ([]corpus, error) {
		var out []corpus
		for _, p := range workload.UnscaledSmall() {
			m := workload.Build(p)
			relayout(m, seed, paperScaleSeed)
			var buf bytes.Buffer
			if err := ir.PrintModule(&buf, m); err != nil {
				return nil, err
			}
			out = append(out, corpus{name: p.Name, text: buf.Bytes()})
		}
		return out, nil
	},
	opts: func() explore.Options {
		o := explore.DefaultOptions()
		o.Threshold = 10
		o.Workers = 1
		o.Ranking = explore.RankExact
		o.Audit = explore.AuditCommitted
		o.Verify = ir.VerifyFast
		return o
	},
	pipeline: textPipeline,
	unmerged: func(c corpus) (*ir.Module, error) { return ir.ParseModule(c.name, string(c.text)) },
}

// relayout gives a generated corpus the layout of seed. The workload's
// default seed keeps the corpus exactly as generated; any other seed
// permutes the function bodies (all definitions but @main) among the
// symbol slots, which moves each body to another name and another position.
// The name decides a body's translation unit and link order, the position
// its place in the text; both decide the exploration order, so a seed
// changes the merge sequence while the program's content stays fixed.
func relayout(m *ir.Module, seed, defaultSeed int64) {
	if seed == defaultSeed {
		return
	}
	var slots []int
	for i, f := range m.Funcs {
		if !f.IsDecl() && f.Name() != "main" {
			slots = append(slots, i)
		}
	}
	defs := make([]*ir.Func, len(slots))
	names := make([]string, len(slots))
	for k, i := range slots {
		defs[k], names[k] = m.Funcs[i], m.Funcs[i].Name()
		defs[k].SetName(fmt.Sprintf("relayout.%d", k)) // free every name first
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(defs))
	for k, f := range defs {
		f.SetName(names[perm[k]])
		m.Funcs[slots[perm[k]]] = f
	}
}

func specProfile(name string) workload.Profile {
	for _, p := range workload.SPECLike() {
		if p.Name == name {
			return p
		}
	}
	panic("perfbench: no SPEC profile " + name)
}

// decodeAndLink decodes every unit serially and links them, timing both
// steps when tr is tracing.
func decodeAndLink(c corpus, tr *tracer) (*ir.Module, error) {
	mods := make([]*ir.Module, len(c.units))
	id := tr.begin("wire.decode")
	for i, u := range c.units {
		m, err := wire.Decode(u, wire.Options{Workers: 1})
		if err != nil {
			tr.end(id)
			return nil, fmt.Errorf("decode unit %d: %w", i, err)
		}
		mods[i] = m
	}
	tr.end(id)
	id = tr.begin("ir.link")
	m, err := ir.LinkModules(c.name, mods...)
	tr.end(id)
	return m, err
}

// ltoPipeline is one lto-t10 operation: decode, link, identical-function
// pre-pass, exploration, full verification and fmir encoding.
func ltoPipeline(c corpus, opts explore.Options, tr *tracer, st *opStats) (*ir.Module, []byte, error) {
	m, err := decodeAndLink(c, tr)
	if err != nil {
		return nil, nil, err
	}
	id := tr.begin("baseline.identical")
	ident := baseline.RunIdentical(m, opts.Target)
	tr.end(id)
	rep := exploreRun(m, opts, tr, st)
	st.sizeBefore += ident.SizeBefore
	st.sizeAfter += rep.SizeAfter
	st.verifyDiags += verifyFull(m, tr)
	id = tr.begin("wire.encode")
	out, err := wire.Encode(m)
	tr.end(id)
	return m, out, err
}

// textPipeline is one paper-scale corpus: parse, exploration with the
// audit and verify gates, full verification and printing.
func textPipeline(c corpus, opts explore.Options, tr *tracer, st *opStats) (*ir.Module, []byte, error) {
	id := tr.begin("ir.parse")
	m, err := ir.ParseModule(c.name, string(c.text))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	rep := exploreRun(m, opts, tr, st)
	st.sizeBefore += rep.SizeBefore
	st.sizeAfter += rep.SizeAfter
	st.verifyDiags += verifyFull(m, tr)
	var buf bytes.Buffer
	id = tr.begin("ir.print")
	err = ir.PrintModule(&buf, m)
	tr.end(id)
	return m, buf.Bytes(), err
}

// exploreRun runs one exploration and, when tracing, attaches the report's
// phases as children of its span and measures its allocation.
func exploreRun(m *ir.Module, opts explore.Options, tr *tracer, st *opStats) *explore.Report {
	var ms runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&ms)
	}
	before := ms.TotalAlloc
	id := tr.begin("explore.run")
	rep := explore.Run(m, opts)
	tr.end(id)
	if tr.on {
		runtime.ReadMemStats(&ms)
		st.allocBytes += ms.TotalAlloc - before
	}
	attachPhases(tr, id, rep.Phases)
	st.reports = append(st.reports, rep)
	return rep
}

// attachPhases lays the report's phases out as synthetic children of span
// parent; the parent's self time is then what no phase accounts for.
func attachPhases(tr *tracer, parent int, p explore.Phases) {
	tr.phase(parent, "fingerprint", p.Fingerprint)
	tr.phase(parent, "explore.ranking", p.Ranking)
	tr.phase(parent, "linearize", p.Linearize)
	tr.phase(parent, "align", p.Align)
	tr.phase(parent, "core.codegen", p.CodeGen)
	tr.phase(parent, "core.update_calls", p.UpdateCalls)
	tr.phase(parent, "analysis.audit", p.Audit)
	tr.phase(parent, "ir.verify_gate", p.Verify)
}

// verifyFull runs the full-level verifier over the output and returns the
// number of findings.
func verifyFull(m *ir.Module, tr *tracer) int {
	id := tr.begin("ir.verify")
	diags := ir.VerifyModuleLevel(m, ir.VerifyFull)
	tr.end(id)
	return len(diags)
}

// runMain interprets @main and returns its result and weighted dynamic cost.
func runMain(m *ir.Module) (ret, weighted uint64, err error) {
	mc := interp.NewMachine(m)
	workload.RegisterIntrinsics(mc)
	ret, err = mc.Run("main")
	return ret, mc.Stats().Weighted, err
}

// reference is the unmerged program's behaviour, computed once untimed.
type reference struct {
	ret, weighted uint64
}

// checkOutput compares a merged module's @main against the unmerged
// reference and returns the merged weighted cost.
func checkOutput(m *ir.Module, ref reference) (uint64, error) {
	if err := ir.VerifyModule(m); err != nil {
		return 0, fmt.Errorf("merged module fails verification: %w", err)
	}
	ret, w, err := runMain(m)
	if err != nil {
		return 0, fmt.Errorf("interpreting merged @main: %w", err)
	}
	if ret != ref.ret {
		return 0, fmt.Errorf("merged @main returns %d, unmerged %d", ret, ref.ret)
	}
	return w, nil
}

// runBatch runs a batch workload for one seed.
func runBatch(spec batchSpec, cfg config) (*outcome, error) {
	out := newOutcome()

	// Set-up: generate the inputs several times; every repetition must
	// produce the same bytes.
	var inputs []corpus
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := spec.setup(cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i == 0 {
			inputs = in
		} else if inputsDigest(in) != inputsDigest(inputs) {
			out.fail("set-up generated different inputs from the same seed")
		}
	}
	out.e2e["setup_s"] = median(setups)

	// Untimed reference: the unmerged programs' @main.
	refs := make([]reference, len(inputs))
	for i, c := range inputs {
		m, err := spec.unmerged(c)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.name, err)
		}
		if refs[i].ret, refs[i].weighted, err = runMain(m); err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.name, err)
		}
	}

	opts := spec.opts()
	var first *determinism
	var walls, tracedWalls, untracedWalls []float64
	var counters []map[string]float64
	tr := newTracer(cfg.trace)
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < cfg.minOps() || time.Now().Before(deadline); op++ {
		// In a traced run every other operation runs untraced, so the two
		// medians give the tracing overhead.
		tr.on = cfg.trace && op%2 == 0
		runtime.GC()
		st := &opStats{}
		var mods []*ir.Module
		h := sha256.New()
		var err error
		t0 := time.Now()
		root := tr.begin("op")
		for _, c := range inputs {
			var m *ir.Module
			var b []byte
			if m, b, err = spec.pipeline(c, opts, tr, st); err != nil {
				err = fmt.Errorf("%s: %w", c.name, err)
				break
			}
			mods = append(mods, m)
			h.Write(b)
		}
		tr.end(root)
		wall := time.Since(t0).Seconds()
		out.attempted++
		if err != nil {
			out.fail(err.Error())
			continue
		}
		if msg := batchGateFailure(st); msg != "" {
			out.fail(msg)
			continue
		}
		d := &determinism{
			SizeReductionPct: 100 * float64(st.sizeBefore-st.sizeAfter) / float64(st.sizeBefore),
			OutputDigest:     fmt.Sprintf("%x", h.Sum(nil)),
		}
		for _, r := range st.reports {
			d.MergeOps += r.MergeOps
			d.AlignCells += r.AlignCells
		}
		if first == nil {
			// Output check on the first operation; later ones must produce
			// the same bytes, so the check covers them too.
			var merged, base uint64
			for i, m := range mods {
				w, err := checkOutput(m, refs[i])
				if err != nil {
					out.fail(fmt.Sprintf("%s: %v", inputs[i].name, err))
				}
				merged += w
				base += refs[i].weighted
			}
			d.RuntimeOverhead = float64(merged) / float64(base)
			first = d
		} else {
			d.RuntimeOverhead = first.RuntimeOverhead
			if *d != *first {
				out.fail(fmt.Sprintf("operation %d drifted: %+v, first %+v", op, *d, *first))
				continue
			}
		}
		walls = append(walls, wall)
		if tr.on {
			tracedWalls = append(tracedWalls, wall)
			c := reportCounters(st.reports)
			c["explore.alloc_mb"] = float64(st.allocBytes) / (1 << 20)
			counters = append(counters, c)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
	}
	if first == nil {
		return out, nil
	}
	out.checkDeterminism(first, cfg)

	total := 0.0
	for _, w := range walls {
		total += w
	}
	out.e2e["compile_s"] = median(walls)
	out.e2e["op_p50_ms"] = 1000 * median(walls)
	out.e2e["ops_per_s"] = float64(len(walls)) / total
	out.e2e["size_reduction_pct"] = first.SizeReductionPct
	out.e2e["runtime_overhead"] = first.RuntimeOverhead
	if cfg.trace {
		out.addLayers(tr, counters)
		out.overhead(tracedWalls, untracedWalls)
	}
	out.tracer = tr
	return out, nil
}

// batchGateFailure reports a failed in-pipeline gate: verifier findings on
// the output or at the explore gates, or auditor findings on a merge.
func batchGateFailure(st *opStats) string {
	if st.verifyDiags > 0 {
		return fmt.Sprintf("output has %d verifier findings", st.verifyDiags)
	}
	for _, r := range st.reports {
		if len(r.VerifyDiags) > 0 {
			return fmt.Sprintf("verify gate: %d findings", len(r.VerifyDiags))
		}
		if r.AuditFlagged > 0 {
			return fmt.Sprintf("audit gate flagged %d merges", r.AuditFlagged)
		}
	}
	return ""
}

// inputsDigest fingerprints a set of generated corpora.
func inputsDigest(cs []corpus) [32]byte {
	h := sha256.New()
	for _, c := range cs {
		fmt.Fprintf(h, "%s\x00%d\x00", c.name, len(c.units))
		for _, u := range c.units {
			fmt.Fprintf(h, "%d\x00", len(u))
			h.Write(u)
		}
		h.Write(c.text)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// reportCounters derives the per-layer counters and ratios of one
// operation from the reports its explorations returned.
func reportCounters(reps []*explore.Report) map[string]float64 {
	var sum explore.Report
	for _, r := range reps {
		sum.Add(r)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := map[string]float64{
		"explore.rank_probes":          float64(sum.RankProbes),
		"explore.prefilter_skip_ratio": ratio(sum.RankPrefilterSkips, sum.RankProbes),
		"explore.rank_fallbacks":       float64(sum.RankFallbacks),
		"align.cells":                  float64(sum.AlignCells),
		"align.ns_per_cell":            ratio(sum.Phases.Align.Nanoseconds(), sum.AlignCells),
		"align.memo_hit_ratio":         ratio(sum.AlignMemoHits, sum.AlignMemoHits+sum.AlignMemoMisses),
		"core.bound_skip_ratio":        ratio(sum.CodegenSkips, sum.BoundEvals),
		"linearize.cache_hit_ratio":    ratio(sum.SeqCacheHits, sum.SeqCacheHits+sum.SeqCacheMisses),
		"explore.merge_ops":            float64(sum.MergeOps),
		"explore.candidates":           float64(sum.CandidatesEvaluated),
		"explore.commit_ratio":         ratio(int64(sum.MergeOps), int64(sum.CandidatesEvaluated)),
	}
	return c
}
