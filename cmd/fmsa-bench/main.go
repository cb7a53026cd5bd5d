// Command fmsa-bench regenerates the paper's tables and figures on the
// synthetic workload suites and prints them as text tables (optionally
// dumping CSV files).
//
//	fmsa-bench -exp fig10 -target x86-64
//	fmsa-bench -exp all -csv results/
//
// Experiments: fig8, fig10, fig11, fig12, fig13, fig14, table1, table2,
// ablation, hotexclusion, perf, rank, audit, bound, ingest, verify, global,
// serve, simdb, all.
//
// The perf experiment measures the exploration pipeline itself (serial vs
// parallel) and emits one machine-readable JSON line per configuration —
// ns/op, merges/s, DP-cell and cache-hit counters, and the per-phase
// breakdown — for tracking the performance trajectory across revisions.
// -nobound disables pre-codegen profitability bounding; -runs repeats each
// measurement and reports the median (ns_per_op) plus the minimum
// (ns_per_op_min); -percorpus emits one line per corpus instead of one per
// suite:
//
//	fmsa-bench -exp perf -workers 8 -json BENCH_explore.json
//	fmsa-bench -exp perf -percorpus -runs 3 -json BENCH_PR5.json
//	fmsa-bench -exp perf -percorpus -runs 3 -nobound -json BENCH_PR5.json
//
// The bound experiment is the profitability-bound differential check: each
// corpus runs with bounding off, with pruning on (must commit bit-identical
// merges) and with a bound-vs-exact audit on every materialized pair (zero
// pairs may price above their bound):
//
//	fmsa-bench -exp bound -quick
//
// The ingest experiment emits every corpus as textual IR and as binary fmir,
// measures decode wall time for both paths (per corpus and whole-suite via
// the concurrent multi-file loader), and fails unless fmir ingest produces
// bit-identical merge records and final module text to text ingest:
//
//	fmsa-bench -exp ingest -json BENCH_ingest.json
//	fmsa-bench -exp ingest -quick -workers 1
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
// The rank experiment compares the exact quadratic candidate ranking with
// the sub-quadratic MinHash/LSH index on identical pools — per-corpus wall
// time, probe counts and top-1 recall as JSON lines — and fails if the
// aggregate LSH recall drops below 0.95:
//
//	fmsa-bench -exp rank -json BENCH_rank.json
//
// The global experiment measures the two-round sharded cross-TU pipeline
// against monolithic whole-program exploration — per corpus and shard
// count, JSON lines carry the exact-scored pair count, alignment cells,
// wall clock and committed merge records — and fails unless results are
// bit-identical across shard counts 1/2/8, round-1 summaries round-trip
// through the .fmsum wire format, and summary-based planning cuts
// exact-scored pairs by at least 30% in aggregate:
//
//	fmsa-bench -exp global -units 4 -json BENCH_PR8.json
//	fmsa-bench -exp global -quick
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
	"runtime"

	"fmsa/internal/experiments"
	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/profiling"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run")
		target    = flag.String("target", "x86-64", "cost-model target: x86-64 or thumb")
		csvDir    = flag.String("csv", "", "also write CSV files to this directory")
		quickly   = flag.Bool("quick", false, "subsample the suites for a fast smoke run")
		workers   = flag.Int("workers", 0, "exploration worker goroutines (0 = all cores)")
		jsonPath  = flag.String("json", "", "append experiment JSON lines (perf, rank, audit) to this file")
		auditMode = flag.String("audit", "committed", "audit experiment mode: committed or deep")
		ranking   = flag.String("ranking", "exact", "perf experiment candidate ranking: exact or lsh")
		noBound   = flag.Bool("nobound", false, "disable pre-codegen profitability bounding")
		runs      = flag.Int("runs", 1, "perf experiment: repeat each measurement, report median and min")
		perCorpus = flag.Bool("percorpus", false, "perf experiment: emit one JSON line per corpus")
		units     = flag.Int("units", 4, "global experiment: translation units per corpus")
		verifyLvl = flag.String("verify", "off", "perf experiment: IR verification level inside exploration (off, fast, full)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
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

	if run("audit") {
		ran = true
		section("Merge-audit sweep: static soundness checks over every committed merge")
		mode, err := explore.ParseAuditMode(*auditMode)
		fatalIf(err)
		if mode == explore.AuditOff {
			mode = explore.AuditCommitted
		}
		suites := append(append([]workload.Profile{}, workload.UnscaledSmall()...), spec...)
		suites = append(suites, mibench...)
		res := experiments.AuditSweep(suites, tgt, 2, mode)
		fmt.Print(experiments.FormatAuditTable(res))
		emitJSON(res, *jsonPath)
		if res.Flagged > 0 {
			fatal(fmt.Errorf("audit flagged %d of %d merges", res.Flagged, res.Audited))
		}
	}

	if run("perf") {
		ran = true
		section("Exploration pipeline performance: serial vs parallel (t=10)")
		mode, err := explore.ParseRankingMode(*ranking)
		fatalIf(err)
		lvl, err := ir.ParseVerifyLevel(*verifyLvl)
		fatalIf(err)
		w := *workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		cfg := experiments.PerfConfig{
			Threshold: 10, Workers: 1, Runs: *runs,
			Ranking: mode, NoBound: *noBound,
			Verify: lvl,
		}
		if *perCorpus {
			for _, r := range experiments.PerfCorpora(spec, tgt, cfg) {
				emitPerf(r, *jsonPath)
			}
		} else {
			serial := experiments.Perf(spec, tgt, cfg)
			emitPerf(serial, *jsonPath)
			if w > 1 {
				cfg.Workers = w
				par := experiments.Perf(spec, tgt, cfg)
				if par.NsPerOp > 0 {
					par.SpeedupVsSerial = float64(serial.NsPerOp) / float64(par.NsPerOp)
				}
				emitPerf(par, *jsonPath)
			}
		}
	}

	if run("bound") {
		ran = true
		section("Bound cross-check: pruning vs exact pipeline, admissibility audit (t=5)")
		rows, err := experiments.BoundCrossCheck(spec, tgt, 5, *workers)
		for _, r := range rows {
			emitJSON(r, *jsonPath)
		}
		fatalIf(err)
	}

	if run("ingest") {
		ran = true
		section("Ingest: text vs binary fmir corpus decode, bit-identical merges gate")
		rows, err := experiments.Ingest(spec, tgt, experiments.IngestConfig{
			Workers: *workers, Runs: *runs, Threshold: 2,
		})
		for _, r := range rows {
			emitJSON(r, *jsonPath)
		}
		fatalIf(err)
		for _, r := range rows {
			if r.Corpus == "aggregate" && r.Format == "fmir" {
				fmt.Printf("\nfmir aggregate: %.2fx ingest speedup over text (%d workers), %.1f%% of text bytes\n",
					r.SpeedupVsText, r.Workers, 100*float64(r.Bytes)/float64(max64(rowBytes(rows, "text"), 1)))
			}
		}
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
			emitJSON(r, *jsonPath)
		}
		fatalIf(err)
		for _, r := range rows {
			if r.Corpus == "aggregate" {
				fmt.Printf("\nverify aggregate: %.1f%% fast-level overhead across %d corpora (%d runs)\n",
					r.OverheadPct, len(rows)-1, r.Runs)
			}
		}
	}

	if run("rank") {
		ran = true
		section("Candidate ranking: exact quadratic scan vs MinHash/LSH index (t=1)")
		rankSpec := spec
		if *quickly {
			// The quick subsample only keeps corpora small enough to fall
			// back to the exact scan, which would gate nothing; measure the
			// one largest corpus instead so the index actually engages.
			for _, p := range workload.SPECLike() {
				if p.Name == "483.xalancbmk" {
					rankSpec = []workload.Profile{p}
				}
			}
		}
		rows := experiments.Rank(rankSpec, 1, *workers)
		var lshAgg experiments.RankModeResult
		for _, r := range rows {
			emitJSON(r, *jsonPath)
			if r.Corpus == "aggregate" && r.Mode == "lsh" {
				lshAgg = r
			}
		}
		if lshAgg.Funcs > 0 {
			fmt.Printf("\nlsh aggregate: %.2fx ranking speedup, %.1f%% top-1 recall, %d fallbacks\n",
				lshAgg.SpeedupVsExact, 100*lshAgg.RecallTop1, lshAgg.Fallbacks)
		}
		if lshAgg.RecallTop1 < 0.95 {
			fatal(fmt.Errorf("lsh aggregate top-1 recall %.3f below the 0.95 floor", lshAgg.RecallTop1))
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
			emitJSON(r, *jsonPath)
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
			emitJSON(r, *jsonPath)
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

	if run("global") {
		ran = true
		section("Global: sharded cross-TU merging vs monolithic exploration (t=1)")
		rows, err := experiments.GlobalSweep(spec, tgt, experiments.GlobalConfig{
			Workers: *workers, Units: *units,
		})
		for _, r := range rows {
			emitJSON(r, *jsonPath)
		}
		fatalIf(err)
		for _, r := range rows {
			if r.Corpus == "aggregate" {
				fmt.Printf("\nglobal aggregate: %.1f%% fewer exact-scored pairs (%d -> %d), bit-identical across shards: %v\n",
					r.ReductionPct, r.ExactMonolithic, r.ExactGlobal, r.BitIdentical)
			}
		}
	}

	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

// emitPerf prints one machine-readable JSON line and optionally appends it
// to path (the BENCH_*.json trajectory file).
func emitPerf(r experiments.PerfResult, path string) { emitJSON(r, path) }

// emitJSON prints any experiment result as one JSON line and optionally
// appends it to path.
func emitJSON(r any, path string) {
	line, err := json.Marshal(r)
	fatalIf(err)
	fmt.Println(string(line))
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	fatalIf(err)
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	fatalIf(err)
}

// rowBytes returns the aggregate on-disk bytes for one ingest format.
func rowBytes(rows []experiments.IngestResult, format string) int64 {
	for _, r := range rows {
		if r.Corpus == "aggregate" && r.Format == format {
			return r.Bytes
		}
	}
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
