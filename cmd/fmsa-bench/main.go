// Command fmsa-bench regenerates the paper's tables and figures on the
// synthetic workload suites and prints them as text tables (optionally
// dumping CSV files).
//
//	fmsa-bench -exp fig10 -target x86-64
//	fmsa-bench -exp all -csv results/
//
// Experiments: fig8, fig10, fig11, fig12, fig13, fig13full, fig14, table1,
// table2, ablation, hotexclusion, lto, verify, serve, simdb, all.
//
// The verify, serve and simdb experiments also print one machine-readable
// JSON line per row; -json appends those lines to a file, which is opened
// before any experiment runs.
//
// The verify experiment drives every corpus through the pipeline's IR
// boundaries (print→reparse, wire round trip, split+relink, merge with
// in-pipeline gates on), verifying at the full level after each, checks
// that verification never changes merge decisions, and gates the
// fast-level overhead at 5% of suite exploration wall clock:
//
//	fmsa-bench -exp verify -runs 3 -json BENCH_verify.json
//	fmsa-bench -exp verify -quick
//
// The serve experiment measures the warm merge-session daemon: the largest
// corpus is submitted cold, then resubmitted with a 1% delta into a warm
// session, and the run fails unless the warm submit is bit-identical to a
// cold session and at least 5x faster. Further phases record stream
// latency percentiles and throughput, warm/cold identity across worker
// counts, admission backpressure and graceful drain:
//
//	fmsa-bench -exp serve -json BENCH_PR9.json
//	fmsa-bench -exp serve -quick
//
// The simdb experiment measures the persistent similarity database: the
// largest corpus's signature/index state is stored to a segment file, 1% of
// the corpus is edited, and the run fails unless the store-backed startup
// (segment replay + delta recompute) beats the full rebuild by at least 3x,
// every probe of the rehydrated LSH index matches a from-scratch in-memory
// index, and store-backed merge decisions are bit-identical to storeless
// cold runs for workers 1/2/8:
//
//	fmsa-bench -exp simdb -json BENCH_PR10.json
//	fmsa-bench -exp simdb -quick
//
// -cpuprofile and -memprofile write pprof profiles covering whichever
// experiments ran.
package main

import (
	"encoding/json"
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
		exp      = flag.String("exp", "all", "experiment to run")
		target   = flag.String("target", "x86-64", "cost-model target: x86-64 or thumb")
		csvDir   = flag.String("csv", "", "also write CSV files to this directory")
		quickly  = flag.Bool("quick", false, "subsample the suites for a fast smoke run")
		workers  = flag.Int("workers", 0, "verify experiment: exploration worker goroutines (0 = all cores)")
		jsonPath = flag.String("json", "", "append the verify, serve and simdb JSON lines to this file")
		runs     = flag.Int("runs", 1, "verify experiment: overhead-measurement repetitions")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	fatalIf(err)
	defer stopProf()

	tgt := tti.ByName(*target)
	if tgt == nil {
		fatal(fmt.Errorf("unknown target %q", *target))
	}
	// Open the JSON file up front so an unwritable path fails before any
	// (possibly minutes-long) experiment runs.
	var jsonFile *os.File
	if *jsonPath != "" {
		jsonFile, err = os.OpenFile(*jsonPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		fatalIf(err)
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

	if run("verify") {
		ran = true
		section("Verify: boundary IR checks, decision invariance, fast-level overhead gate")
		suites := append(append([]workload.Profile{}, workload.UnscaledSmall()...), spec...)
		suites = append(suites, mibench...)
		rows, err := experiments.VerifySweep(suites, tgt, experiments.VerifyConfig{
			Workers: *workers, Runs: *runs, Threshold: 2,
		})
		for _, r := range rows {
			emitJSON(r, jsonFile)
		}
		fatalIf(err)
		for _, r := range rows {
			if r.Corpus == "aggregate" {
				fmt.Printf("\nverify aggregate: %.1f%% fast-level overhead across %d corpora (%d runs)\n",
					r.OverheadPct, len(rows)-1, r.Runs)
			}
		}
	}

	if run("serve") {
		ran = true
		section("Serve: warm merge sessions, delta resubmission vs cold exploration (t=20)")
		// Threshold 20 is the gate calibration: deep enough that the cold
		// ranking and evaluation work dominates, shallow enough that the
		// warm floor (merged-function scans plus materialization) stays low.
		rows, err := experiments.Serve(workload.SPECLike(), tgt, experiments.ServeConfig{
			Threshold: 20, Workers: 1, Quick: *quickly,
		})
		for _, r := range rows {
			emitJSON(r, jsonFile)
		}
		fatalIf(err)
		for _, r := range rows {
			if r.Phase == "speedup" {
				fmt.Printf("\nserve: %.2fx warm speedup at %.0f%% delta on %s (cold %.2fs, warm %.2fs), bit-identical: %v\n",
					r.Speedup, 100*r.DeltaFrac, r.Corpus,
					float64(r.ColdNS)/1e9, float64(r.WarmNS)/1e9, r.BitIdentical)
			}
		}
	}

	if run("simdb") {
		ran = true
		section("SimDB: persistent similarity database, store-backed startup vs full rebuild")
		rows, err := experiments.SimDB(workload.SPECLike(), tgt, experiments.SimDBConfig{
			Quick: *quickly,
		})
		for _, r := range rows {
			emitJSON(r, jsonFile)
		}
		fatalIf(err)
		for _, r := range rows {
			switch r.Phase {
			case "startup":
				fmt.Printf("\nsimdb: %.2fx store-backed startup at %.0f%% delta on %s (cold %.3fs, warm %.3fs, %d hits/%d misses, %d segment bytes)\n",
					r.Speedup, 100*r.DeltaFrac, r.Corpus,
					float64(r.ColdNS)/1e9, float64(r.WarmNS)/1e9,
					r.StoreHits, r.StoreMisses, r.SegmentBytes)
			case "probe":
				fmt.Printf("simdb: probe p50 %.1fµs, p95 %.1fµs, p99 %.1fµs over %d queries, identical to in-memory index: %v\n",
					float64(r.P50NS)/1e3, float64(r.P95NS)/1e3, float64(r.P99NS)/1e3,
					r.Probes, r.BitIdentical)
			}
		}
	}

	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if jsonFile != nil {
		fatalIf(jsonFile.Close())
	}
}

// emitJSON prints any experiment result as one JSON line and, when f is
// non-nil, appends it to f.
func emitJSON(r any, f *os.File) {
	line, err := json.Marshal(r)
	fatalIf(err)
	fmt.Println(string(line))
	if f == nil {
		return
	}
	_, err = f.Write(append(line, '\n'))
	fatalIf(err)
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
