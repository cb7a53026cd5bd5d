package fmsa_test

// One benchmark per table and figure of the paper's evaluation (§V). Each
// benchmark drives the same harness as cmd/fmsa-bench, on a subsampled
// suite so a full -bench=. run stays tractable; run
// `go run ./cmd/fmsa-bench -exp all` for the full-suite regeneration.
//
// Custom metrics attached to the benchmarks report the experiment's
// headline numbers (mean reduction %, overhead ×, CDF coverage %) so the
// paper-vs-measured comparison is visible directly in benchmark output.

import (
	"testing"

	"fmsa"

	"fmsa/internal/experiments"
	"fmsa/internal/stats"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// benchSpec subsamples the SPEC-like suite (every 4th profile) to keep
// benchmark iterations to seconds.
func benchSpec() []workload.Profile { return workload.Quick(workload.SPECLike()) }

// benchMiBench subsamples the MiBench-like suite, always keeping rijndael
// (its twin pair is the Fig. 11 headline).
func benchMiBench() []workload.Profile {
	var out []workload.Profile
	for i, p := range workload.MiBenchLike() {
		if i%4 == 0 || p.Name == "rijndael" {
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkFig8RankCDF regenerates the Fig. 8 rank-position CDF at t=10 and
// reports coverage at ranks 1 and 5 (paper: ~89% and ≥98%).
func BenchmarkFig8RankCDF(b *testing.B) {
	var cdf []float64
	for i := 0; i < b.N; i++ {
		cdf = experiments.RankCDF(benchSpec(), tti.X86{}, 10, 10)
	}
	if len(cdf) == 10 {
		b.ReportMetric(cdf[0], "top1-%")
		b.ReportMetric(cdf[4], "top5-%")
	}
}

// fig10Bench runs the Fig. 10 code-size experiment on one target and
// reports the per-technique mean reductions.
func fig10Bench(b *testing.B, target tti.Target) {
	techs := experiments.Fig10Techniques()
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.CodeSize(benchSpec(), target, techs)
	}
	b.ReportMetric(experiments.MeanReduction(rows, "Identical"), "identical-%")
	b.ReportMetric(experiments.MeanReduction(rows, "SOA"), "soa-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[t=1]"), "fmsa1-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[t=10]"), "fmsa10-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[oracle]"), "oracle-%")
}

// BenchmarkFig10CodeSizeX86 regenerates Fig. 10 (top, Intel).
func BenchmarkFig10CodeSizeX86(b *testing.B) { fig10Bench(b, tti.X86{}) }

// BenchmarkFig10CodeSizeThumb regenerates Fig. 10 (bottom, ARM Thumb).
func BenchmarkFig10CodeSizeThumb(b *testing.B) { fig10Bench(b, tti.Thumb{}) }

// BenchmarkTable1MergeOps regenerates Table I's merge-operation counts and
// reports the total merges FMSA[t=10] performs versus the baselines.
func BenchmarkTable1MergeOps(b *testing.B) {
	techs := experiments.Fig10Techniques()
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.CodeSize(benchSpec(), tti.X86{}, techs)
	}
	total := func(name string) (n int) {
		for _, r := range rows {
			n += r.MergeOps[name]
		}
		return
	}
	b.ReportMetric(float64(total("Identical")), "identical-merges")
	b.ReportMetric(float64(total("SOA")), "soa-merges")
	b.ReportMetric(float64(total("FMSA[t=10]")), "fmsa10-merges")
}

// BenchmarkFig11MiBench regenerates Fig. 11: FMSA is the only technique
// with meaningful reductions on the embedded suite; rijndael dominates.
func BenchmarkFig11MiBench(b *testing.B) {
	techs := experiments.Fig10Techniques()
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.CodeSize(benchMiBench(), tti.X86{}, techs)
	}
	b.ReportMetric(experiments.MeanReduction(rows, "Identical"), "identical-%")
	b.ReportMetric(experiments.MeanReduction(rows, "SOA"), "soa-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[t=1]"), "fmsa1-%")
	for _, r := range rows {
		if r.Bench == "rijndael" {
			b.ReportMetric(r.Reduction["FMSA[t=1]"], "rijndael-%")
		}
	}
}

// BenchmarkTable2MergeOps regenerates Table II's merge counts.
func BenchmarkTable2MergeOps(b *testing.B) {
	techs := []experiments.Technique{
		experiments.Identical(), experiments.SOA(), experiments.FMSA(1), experiments.FMSA(10),
	}
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.CodeSize(benchMiBench(), tti.X86{}, techs)
	}
	total := 0
	for _, r := range rows {
		total += r.MergeOps["FMSA[t=10]"]
	}
	b.ReportMetric(float64(total), "fmsa10-merges")
}

// BenchmarkFig12CompileTime regenerates the compile-time overhead
// comparison and reports mean normalized times (paper: FMSA[t=1] ≈ 1.15×,
// t=10 ≈ 1.74×).
func BenchmarkFig12CompileTime(b *testing.B) {
	techs := []experiments.Technique{
		experiments.Identical(), experiments.SOA(),
		experiments.FMSA(1), experiments.FMSA(10),
	}
	var rows []experiments.TimeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.CompileTime(benchSpec(), tti.X86{}, techs)
	}
	mean := func(name string) float64 {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Normalized[name])
		}
		return stats.Mean(xs)
	}
	b.ReportMetric(mean("FMSA[t=1]"), "fmsa1-x")
	b.ReportMetric(mean("FMSA[t=10]"), "fmsa10-x")
	b.ReportMetric(mean("SOA"), "soa-x")
}

// BenchmarkFig13Breakdown regenerates the per-phase breakdown at t=1
// (paper: alignment dominates, then ranking, then code generation).
func BenchmarkFig13Breakdown(b *testing.B) {
	var rows []experiments.BreakdownRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Breakdown(benchSpec(), tti.X86{}, 1)
	}
	agg := map[string]float64{}
	for _, r := range rows {
		for ph, v := range r.Percent {
			agg[ph] += v / float64(len(rows))
		}
	}
	b.ReportMetric(agg["Alignment"], "align-%")
	b.ReportMetric(agg["Ranking"], "rank-%")
	b.ReportMetric(agg["Code-Gen"], "codegen-%")
}

// BenchmarkFig14Runtime regenerates the runtime-overhead experiment
// (paper: ≈1.02–1.03× mean, statistically insignificant for most
// benchmarks).
func BenchmarkFig14Runtime(b *testing.B) {
	techs := []experiments.Technique{experiments.FMSA(1), experiments.FMSA(10)}
	var rows []experiments.RuntimeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Runtime(benchSpec(), tti.X86{}, techs)
		if err != nil {
			b.Fatal(err)
		}
	}
	mean := func(name string) float64 {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Normalized[name])
		}
		return stats.Mean(xs)
	}
	b.ReportMetric(mean("FMSA[t=1]"), "fmsa1-x")
	b.ReportMetric(mean("FMSA[t=10]"), "fmsa10-x")
}

// BenchmarkHotExclusion regenerates the §V-D milc experiment: merging only
// cold functions trades size reduction for runtime neutrality.
func BenchmarkHotExclusion(b *testing.B) {
	var res experiments.HotExclusionResult
	for i := 0; i < b.N; i++ {
		var err error
		// 482.sphinx3 at t=1 shows the paper's §V-D effect most clearly.
		res, err = experiments.HotExclusion(workload.SPECLike()[17], tti.X86{}, 1, 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ReductionAll, "all-reduction-%")
	b.ReportMetric(res.OverheadAll, "all-runtime-x")
	b.ReportMetric(res.ReductionCold, "cold-reduction-%")
	b.ReportMetric(res.OverheadCold, "cold-runtime-x")
}

// BenchmarkAblations regenerates the design-choice ablations: parameter
// reuse (§III-E's "up to 7%"), alignment algorithm and linearization order.
func BenchmarkAblations(b *testing.B) {
	techs := experiments.AblationTechniques()
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.CodeSize(benchSpec(), tti.X86{}, techs)
	}
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[t=1]"), "default-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[no-param-reuse]"), "noreuse-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[hirschberg]"), "hirschberg-%")
	b.ReportMetric(experiments.MeanReduction(rows, "FMSA[order=dfs]"), "dfs-%")
}

// BenchmarkMergePair measures one FMSA merge of a realistic pair, the unit
// of work Figs. 12/13 aggregate.
func BenchmarkMergePair(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := workloadPairModule(int64(i%16) + 1)
		f1 := m.FuncByName("orig")
		f2 := m.FuncByName("variant")
		b.StartTimer()
		res, err := fmsa.Merge(f1, f2)
		if err != nil {
			b.Fatal(err)
		}
		res.Discard()
	}
}

// BenchmarkOptimizeModule measures a whole-module FMSA run on a mid-size
// synthetic benchmark.
func BenchmarkOptimizeModule(b *testing.B) {
	p := workload.Profile{
		Name: "bench", NumFuncs: 40, AvgSize: 30, MaxSize: 120,
		Identical: 0.1, ConstVar: 0.05, TypeVar: 0.1, CFGVar: 0.08, Partial: 0.08,
		InternalFrac: 0.7, Seed: 111,
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := workload.Build(p)
		b.StartTimer()
		if _, err := fmsa.Optimize(m, fmsa.Options{Threshold: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
