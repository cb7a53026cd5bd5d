package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// PerfResult is the machine-readable summary of one exploration performance
// measurement, serialized as a JSON line by cmd/fmsa-bench -exp perf so the
// performance trajectory can be tracked across revisions (BENCH_*.json).
type PerfResult struct {
	// Suite names the workload suite (or single corpus) measured.
	Suite string `json:"suite"`
	// Workers is the exploration worker-pool size (1 = serial).
	Workers int `json:"workers"`
	// Ranking is the candidate-ranking mode: "exact" or "lsh".
	Ranking string `json:"ranking"`
	// Threshold is the exploration threshold t.
	Threshold int `json:"threshold"`
	// Bound reports whether pre-codegen profitability bounding was enabled.
	Bound bool `json:"bound"`
	// Runs is how many times the whole suite was explored.
	Runs int `json:"runs"`
	// MergeOps and CandidatesEvaluated sum over one pass of the suite.
	MergeOps            int `json:"merge_ops"`
	CandidatesEvaluated int `json:"candidates_evaluated"`
	// NsPerOp is wall-clock nanoseconds per suite exploration pass: the
	// median across runs (the stable central figure BENCH_*.json rows track).
	NsPerOp int64 `json:"ns_per_op"`
	// NsPerOpMin is the fastest run's wall-clock — the least-noise sample.
	// Equal to NsPerOp when Runs == 1.
	NsPerOpMin int64 `json:"ns_per_op_min"`
	// MergesPerSec is committed merges per wall-clock second (median run).
	MergesPerSec float64 `json:"merges_per_sec"`
	// PhaseNs breaks one pass down by pipeline phase, taking the per-phase
	// median across runs. Fingerprint, Ranking and UpdateCalls are
	// wall-clock; Linearize, Align and CodeGen sum per-attempt time across
	// workers. PhaseNsMin holds the per-phase minima.
	PhaseNs    map[string]int64 `json:"phase_ns"`
	PhaseNsMin map[string]int64 `json:"phase_ns_min,omitempty"`
	// SpeedupVsSerial is the serial wall-clock divided by this
	// configuration's wall-clock (0 when no serial baseline was measured).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// RankProbes, RankPrefilterSkips and RankFallbacks sum the ranking
	// counters over one pass of the suite (see explore.Report).
	RankProbes         int64 `json:"rank_probes"`
	RankPrefilterSkips int64 `json:"rank_prefilter_skips"`
	RankFallbacks      int   `json:"rank_fallbacks"`
	// AlignCells counts dynamic-programming cells across all alignments of
	// one pass — the kernel-independent measure of alignment work actually
	// performed (memo hits skip their cells entirely).
	AlignCells int64 `json:"align_cells"`
	// SeqCacheHits/Misses count linearization-cache lookups; hit rates are
	// scheduling-dependent under Workers > 1.
	SeqCacheHits   int64 `json:"seq_cache_hits"`
	SeqCacheMisses int64 `json:"seq_cache_misses"`
	// AlignMemoHits/Misses count alignment-memo lookups.
	AlignMemoHits   int64 `json:"align_memo_hits"`
	AlignMemoMisses int64 `json:"align_memo_misses"`
	// BoundEvals/CodegenSkips count profitability-bound evaluations and the
	// subset that skipped merged-function materialization. Zero when Bound
	// is false.
	BoundEvals   int64 `json:"bound_evals"`
	CodegenSkips int64 `json:"codegen_skips"`
	// Verify is the IR verification level the pipeline ran under ("off"
	// unless -verify was given); VerifiedFuncs and VerifyDiags count the
	// functions the gates checked and the findings they produced.
	Verify        string `json:"verify,omitempty"`
	VerifiedFuncs int64  `json:"verified_funcs,omitempty"`
	VerifyDiags   int    `json:"verify_diags,omitempty"`
}

// PerfConfig selects one exploration configuration to measure.
type PerfConfig struct {
	Threshold int
	Workers   int // <= 0 selects GOMAXPROCS
	Runs      int // <= 0 means 1
	Ranking   explore.RankingMode
	NoBound   bool // disable pre-codegen profitability bounding
	Verify    ir.VerifyLevel
}

// apply copies the configuration onto exploration options.
func (c PerfConfig) apply(opts *explore.Options) {
	opts.Threshold = c.Threshold
	opts.Ranking = c.Ranking
	opts.NoBound = c.NoBound
	opts.Verify = c.Verify
}

// Perf measures whole-suite exploration under one configuration: modules are
// rebuilt outside the timed region, so NsPerOp isolates the exploration
// pipeline itself.
func Perf(profiles []workload.Profile, target tti.Target, cfg PerfConfig) PerfResult {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	res := PerfResult{
		Suite:   suiteName(profiles),
		Workers: cfg.Workers, Ranking: cfg.Ranking.String(),
		Bound:     !cfg.NoBound,
		Threshold: cfg.Threshold, Runs: cfg.Runs,
		Verify:  cfg.Verify.String(),
		PhaseNs: map[string]int64{},
	}
	// Per-run samples: the reported figures are the medians across runs
	// (stable against scheduler noise) with the per-run minima alongside.
	// Merge results and counters are deterministic across runs, so those are
	// simply taken from the last run.
	walls := make([]int64, 0, cfg.Runs)
	phaseRuns := make([]explore.Phases, 0, cfg.Runs)
	for r := 0; r < cfg.Runs; r++ {
		mods := make([]*ir.Module, len(profiles))
		for i, p := range profiles {
			mods[i] = workload.Build(p)
		}
		start := time.Now()
		ops, cands := 0, 0
		var probes, skips int64
		fallbacks := 0
		var cells, seqHits, seqMisses, memoHits, memoMisses int64
		var boundEvals, codegenSkips int64
		var verifiedFuncs int64
		verifyDiags := 0
		var phases explore.Phases
		for _, m := range mods {
			opts := explore.DefaultOptions()
			opts.Target = target
			opts.Workers = cfg.Workers
			cfg.apply(&opts)
			rep := explore.Run(m, opts)
			ops += rep.MergeOps
			cands += rep.CandidatesEvaluated
			probes += rep.RankProbes
			skips += rep.RankPrefilterSkips
			fallbacks += rep.RankFallbacks
			cells += rep.AlignCells
			seqHits += rep.SeqCacheHits
			seqMisses += rep.SeqCacheMisses
			memoHits += rep.AlignMemoHits
			memoMisses += rep.AlignMemoMisses
			boundEvals += rep.BoundEvals
			codegenSkips += rep.CodegenSkips
			verifiedFuncs += rep.VerifiedFuncs
			verifyDiags += len(rep.VerifyDiags)
			phases.Fingerprint += rep.Phases.Fingerprint
			phases.Ranking += rep.Phases.Ranking
			phases.Linearize += rep.Phases.Linearize
			phases.Align += rep.Phases.Align
			phases.CodeGen += rep.Phases.CodeGen
			phases.UpdateCalls += rep.Phases.UpdateCalls
			phases.Verify += rep.Phases.Verify
		}
		walls = append(walls, time.Since(start).Nanoseconds())
		phaseRuns = append(phaseRuns, phases)
		res.MergeOps, res.CandidatesEvaluated = ops, cands
		res.RankProbes, res.RankPrefilterSkips, res.RankFallbacks = probes, skips, fallbacks
		res.AlignCells = cells
		res.SeqCacheHits, res.SeqCacheMisses = seqHits, seqMisses
		res.AlignMemoHits, res.AlignMemoMisses = memoHits, memoMisses
		res.BoundEvals, res.CodegenSkips = boundEvals, codegenSkips
		res.VerifiedFuncs, res.VerifyDiags = verifiedFuncs, verifyDiags
	}
	res.NsPerOp = medianInt64(walls)
	res.NsPerOpMin = minInt64(walls)
	if res.NsPerOp > 0 {
		res.MergesPerSec = float64(res.MergeOps) / (float64(res.NsPerOp) / 1e9)
	}
	res.PhaseNsMin = map[string]int64{}
	for name, get := range phaseExtractors {
		samples := make([]int64, len(phaseRuns))
		for i, p := range phaseRuns {
			samples[i] = get(p).Nanoseconds()
		}
		res.PhaseNs[name] = medianInt64(samples)
		res.PhaseNsMin[name] = minInt64(samples)
	}
	return res
}

// phaseExtractors maps the BENCH phase_ns keys to their Phases fields.
var phaseExtractors = map[string]func(explore.Phases) time.Duration{
	"fingerprint":  func(p explore.Phases) time.Duration { return p.Fingerprint },
	"ranking":      func(p explore.Phases) time.Duration { return p.Ranking },
	"linearize":    func(p explore.Phases) time.Duration { return p.Linearize },
	"align":        func(p explore.Phases) time.Duration { return p.Align },
	"codegen":      func(p explore.Phases) time.Duration { return p.CodeGen },
	"update_calls": func(p explore.Phases) time.Duration { return p.UpdateCalls },
	"verify":       func(p explore.Phases) time.Duration { return p.Verify },
}

// medianInt64 returns the lower median of the samples (exact middle for odd
// counts), without mutating the input.
func medianInt64(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func minInt64(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, v := range samples[1:] {
		m = min(m, v)
	}
	return m
}

// PerfCorpora measures each corpus of the suite separately under one
// configuration — the per-corpus rows of BENCH_PR4.json.
func PerfCorpora(profiles []workload.Profile, target tti.Target, cfg PerfConfig) []PerfResult {
	out := make([]PerfResult, 0, len(profiles))
	for _, p := range profiles {
		r := Perf([]workload.Profile{p}, target, cfg)
		r.Suite = p.Name
		out = append(out, r)
	}
	return out
}

func suiteName(profiles []workload.Profile) string {
	if len(profiles) == 0 {
		return "empty"
	}
	return fmt.Sprintf("%s+%d", profiles[0].Name, len(profiles))
}
