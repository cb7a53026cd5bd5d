// Command fmsa-bench regenerates the paper's tables and figures on the
// synthetic workload suites and prints them as text tables (optionally
// dumping CSV files).
//
//	fmsa-bench -exp fig10 -target x86-64
//	fmsa-bench -exp all -csv results/
//
// Experiments: fig8, fig10, fig11, fig12, fig13, fig13full, fig14, table1,
// table2, ablation, hotexclusion, lto, all.
//
// -cpuprofile and -memprofile write pprof profiles covering whichever
// experiments ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fmsa/internal/experiments"
	"fmsa/internal/profiling"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run")
		target  = flag.String("target", "x86-64", "cost-model target: x86-64 or thumb")
		csvDir  = flag.String("csv", "", "also write CSV files to this directory")
		quickly = flag.Bool("quick", false, "subsample the suites for a fast smoke run")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	fatalIf(err)
	defer stopProf()

	tgt := tti.ByName(*target)
	if tgt == nil {
		fatal(fmt.Errorf("unknown target %q", *target))
	}
	spec := workload.SPECLike()
	mibench := workload.MiBenchLike()
	if *quickly {
		spec = workload.Quick(spec)
		mibench = workload.Quick(mibench)
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if run("fig8") {
		ran = true
		section("Figure 8: CDF of profitable-candidate rank positions (t=10)")
		cdf := experiments.RankCDF(spec, tgt, 10, 10)
		fmt.Print(experiments.FormatCDF(cdf))
	}

	var specRows []experiments.SizeRow
	if run("fig10") || run("table1") {
		specRows = experiments.CodeSize(spec, tgt, experiments.Fig10Techniques())
	}
	if run("fig10") {
		ran = true
		section(fmt.Sprintf("Figure 10: object-size reduction, SPEC-like suite (%s)", tgt.Name()))
		fmt.Print(experiments.FormatSizeTable(specRows, experiments.TechNames(experiments.Fig10Techniques())))
		writeCSV(*csvDir, "fig10_"+tgt.Name()+".csv",
			experiments.SizeCSV(specRows, experiments.TechNames(experiments.Fig10Techniques())))
	}
	if run("table1") {
		ran = true
		section("Table I: SPEC-like population statistics and merge operations")
		fmt.Print(experiments.FormatStatsTable(specRows, experiments.TechNames(experiments.Fig10Techniques())))
	}

	var miRows []experiments.SizeRow
	if run("fig11") || run("table2") {
		miRows = experiments.CodeSize(mibench, tgt, experiments.Fig10Techniques())
	}
	if run("fig11") {
		ran = true
		section(fmt.Sprintf("Figure 11: object-size reduction, MiBench-like suite (%s)", tgt.Name()))
		fmt.Print(experiments.FormatSizeTable(miRows, experiments.TechNames(experiments.Fig10Techniques())))
		writeCSV(*csvDir, "fig11_"+tgt.Name()+".csv",
			experiments.SizeCSV(miRows, experiments.TechNames(experiments.Fig10Techniques())))
	}
	if run("table2") {
		ran = true
		section("Table II: MiBench-like population statistics and merge operations")
		fmt.Print(experiments.FormatStatsTable(miRows, experiments.TechNames(experiments.Fig10Techniques())))
	}

	if run("fig12") {
		ran = true
		section("Figure 12: compile-time overhead, normalized to the non-merging pipeline")
		techs := []experiments.Technique{
			experiments.Identical(), experiments.SOA(),
			experiments.FMSA(1), experiments.FMSA(5), experiments.FMSA(10),
		}
		rows := experiments.CompileTime(spec, tgt, techs)
		fmt.Print(experiments.FormatTimeTable(rows, experiments.TechNames(techs)))
	}

	if run("fig13") {
		ran = true
		section("Figure 13: FMSA compile-time breakdown by phase (t=1)")
		rows := experiments.Breakdown(spec, tgt, 1)
		fmt.Print(experiments.FormatBreakdownTable(rows))
	}

	if run("fig14") {
		ran = true
		section("Figure 14: runtime overhead (weighted dynamic instruction count)")
		techs := []experiments.Technique{
			experiments.Identical(), experiments.SOA(),
			experiments.FMSA(1), experiments.FMSA(5), experiments.FMSA(10),
		}
		rows, err := experiments.Runtime(spec, tgt, techs)
		fatalIf(err)
		fmt.Print(experiments.FormatRuntimeTable(rows, experiments.TechNames(techs)))
	}

	if run("hotexclusion") {
		ran = true
		section("§V-D: profile-guided exclusion of hot functions")
		fmt.Printf("%-16s %-5s %22s %22s\n", "benchmark", "t", "FMSA (all functions)", "FMSA (cold only)")
		show := map[string]int{"433.milc": 10, "462.libquantum": 1, "400.perlbench": 1, "482.sphinx3": 1}
		for _, p := range spec {
			th, ok := show[p.Name]
			if !ok {
				continue
			}
			res, err := experiments.HotExclusion(p, tgt, th, 0.1)
			fatalIf(err)
			fmt.Printf("%-16s t=%-3d %9.2f%%  %.3fx %9.2f%%  %.3fx\n",
				res.Bench, th, res.ReductionAll, res.OverheadAll, res.ReductionCold, res.OverheadCold)
		}
	}

	if run("fig13full") {
		ran = true
		section("Figure 13 at paper scale: phase breakdown on unscaled small benchmarks (t=1)")
		rows := experiments.Breakdown(workload.UnscaledSmall(), tgt, 1)
		fmt.Print(experiments.FormatBreakdownTable(rows))
	}

	if run("lto") {
		ran = true
		section("§IV-B: whole-program (LTO) versus per-translation-unit merging (t=1)")
		units := []int{1, 4, 16}
		rows := experiments.LTOGranularity(spec, tgt, 1, units)
		fmt.Print(experiments.FormatLTOTable(rows, units))
	}

	if run("ablation") {
		ran = true
		section("Ablations: parameter reuse, alignment algorithm, linearization order")
		techs := experiments.AblationTechniques()
		rows := experiments.CodeSize(spec, tgt, techs)
		fmt.Print(experiments.FormatSizeTable(rows, experiments.TechNames(techs)))
	}

	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func writeCSV(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmsa-bench:", err)
	os.Exit(1)
}
