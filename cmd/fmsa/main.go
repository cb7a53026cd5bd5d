// Command fmsa runs function merging by sequence alignment on an IR module
// in either format: textual IR (.ll) or binary fmir (.fmir), sniffed by
// magic bytes.
//
// Whole-module mode (default) applies one of the three techniques:
//
//	fmsa -technique fmsa -threshold 10 -target x86-64 module.ll
//	fmsa -technique fmsa -threshold 10 corpus.fmir
//
// Pair mode merges two named functions and prints the merged function:
//
//	fmsa -merge glist_add_float32,glist_add_float64 module.ll
//
// Global mode treats every input file as its own translation unit and runs
// the two-round cross-TU pipeline: round 1 summarizes each unit (stable
// hash + MinHash signature), round 2 plans folds and merge pairs from the
// summaries alone and commits them per unit. Results are bit-identical for
// any -workers value:
//
//	fmsa -global tu0.ll tu1.ll tu2.fmir
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fmsa"

	"fmsa/internal/analysis"
	"fmsa/internal/callgraph"
	"fmsa/internal/core"
	"fmsa/internal/global"
	"fmsa/internal/ir"
	"fmsa/internal/profiling"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
)

func main() {
	var (
		technique  = flag.String("technique", "fmsa", "merging technique: identical, soa, fmsa")
		threshold  = flag.Int("threshold", 1, "FMSA exploration threshold (t)")
		target     = flag.String("target", "x86-64", "cost-model target: x86-64 or thumb")
		oracle     = flag.Bool("oracle", false, "use exhaustive (oracle) exploration")
		workers    = flag.Int("workers", 0, "exploration worker goroutines (0 = all cores; results are identical for any value)")
		ranking    = flag.String("ranking", "exact", "candidate ranking: exact (quadratic scan) or lsh (MinHash index, sub-quadratic)")
		audit      = flag.String("audit", "off", "merge auditing: off, committed (static checks, diagnostics reported) or deep (reject merges whose behavior diverges)")
		verifyLvl  = flag.String("verify", "full", "IR verification at pipeline boundaries and inside exploration: off, fast or full")
		globalMode = flag.Bool("global", false, "two-round cross-TU merging: each input file is one translation unit")
		mergePair  = flag.String("merge", "", "merge exactly this comma-separated function pair")
		out        = flag.String("o", "", "write the optimized module to this file (default: stdout)")
		quiet      = flag.Bool("q", false, "suppress the statistics report")
		cgDot      = flag.Bool("callgraph", false, "print the call graph as Graphviz DOT instead of optimizing")
		dbPath     = flag.String("db", "", "persistent similarity database segment: reuse fingerprint, signature and failed-attempt state across runs (fmsa technique only)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: fmsa [flags] module.{ll,fmir} [more ...]")
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	fatal(err)
	defer stopProf()

	// Multiple translation units are linked into one module before
	// optimizing — the paper's monolithic-LTO pipeline (Fig. 9). Files are
	// loaded concurrently (bounded by -workers) in either format: textual
	// IR or binary fmir, told apart by their magic bytes.
	level, err := ir.ParseVerifyLevel(*verifyLvl)
	fatal(err)
	units, err := wire.LoadFiles(flag.Args(), *workers)
	fatal(err)
	for i, u := range units {
		verifyGate(u, level, "input "+flag.Arg(i))
	}

	tgt := tti.ByName(*target)
	if tgt == nil {
		fatal(fmt.Errorf("unknown target %q", *target))
	}

	if *globalMode {
		runGlobal(units, tgt, level, *workers, *out, *quiet)
		return
	}

	mod := units[0]
	if len(units) > 1 {
		var err error
		mod, err = ir.LinkModules("linked", units...)
		fatal(err)
		verifyGate(mod, level, "post-link")
	}

	if *cgDot {
		g := callgraph.Build(mod)
		st := g.ComputeStats()
		fmt.Fprintf(os.Stderr, "functions: %d (+%d decls), edges: %d, call sites: %d, recursive: %d, address-taken: %d, unreachable: %d\n",
			st.Functions, st.Declarations, st.Edges, st.CallSites, st.Recursive, st.AddressTaken, st.Unreachable)
		fmt.Print(g.DOT())
		return
	}

	if *mergePair != "" {
		runPair(mod, *mergePair, tgt, level, *quiet)
		emit(mod, *out)
		return
	}

	var store *simdb.Store
	if *dbPath != "" {
		if fmsa.Technique(*technique) != fmsa.TechniqueFMSA {
			fatal(fmt.Errorf("-db requires -technique fmsa"))
		}
		store, err = simdb.Open(*dbPath, "fmsa", simdb.Options{})
		fatal(err)
	}

	before, _ := fmsa.ModuleSize(mod, *target)
	rep, err := fmsa.Optimize(mod, fmsa.Options{
		Technique: fmsa.Technique(*technique),
		Threshold: *threshold,
		Target:    *target,
		Oracle:    *oracle,
		Workers:   *workers,
		Ranking:   *ranking,
		Audit:     *audit,
		Verify:    *verifyLvl,
		Store:     store,
	})
	fatal(err)
	if len(rep.VerifyDiags) > 0 {
		fmt.Fprint(os.Stderr, ir.FormatVerifyDiags(rep.VerifyDiags))
		fatal(fmt.Errorf("exploration verifier reported %d findings", len(rep.VerifyDiags)))
	}
	verifyGate(mod, level, "post-optimize")
	after, _ := fmsa.ModuleSize(mod, *target)

	if !*quiet {
		fmt.Fprintf(os.Stderr, "technique:        %s\n", *technique)
		fmt.Fprintf(os.Stderr, "merge operations: %d\n", rep.MergeOps)
		fmt.Fprintf(os.Stderr, "fully removed:    %d\n", rep.FullyRemoved)
		fmt.Fprintf(os.Stderr, "size (%s):    %d -> %d bytes (%.2f%% reduction)\n",
			tgt.Name(), before, after, 100*float64(before-after)/float64(max(before, 1)))
		if *ranking == "lsh" {
			fmt.Fprintf(os.Stderr, "lsh ranking:      %d probes, %d prefilter skips, %d fallbacks\n",
				rep.RankProbes, rep.RankPrefilterSkips, rep.RankFallbacks)
		}
		if store != nil {
			st := store.Stats()
			fmt.Fprintf(os.Stderr, "similarity db:    %d live records (%d signed), %d bytes\n",
				st.Live, st.Signed, st.SegmentBytes)
		}
		if rep.AuditedMerges > 0 {
			fmt.Fprintf(os.Stderr, "audited merges:   %d (%d flagged, %d escalated, %d rejected)\n",
				rep.AuditedMerges, rep.AuditFlagged, rep.AuditEscalated, rep.AuditRejected)
		}
	}
	if len(rep.AuditDiags) > 0 {
		fmt.Fprint(os.Stderr, analysis.FormatDiagnostics(rep.AuditDiags))
	}
	emit(mod, *out)
}

// runGlobal drives the two-round cross-TU pipeline over the loaded
// translation units and emits the linked result.
func runGlobal(units []*fmsa.Module, tgt tti.Target, level ir.VerifyLevel, workers int, out string, quiet bool) {
	opts := global.DefaultOptions()
	opts.Target = tgt
	opts.Workers = workers
	linked, rep, err := global.Run(units, opts)
	fatal(err)
	verifyGate(linked, level, "post-global")
	if !quiet {
		fmt.Fprintf(os.Stderr, "translation units: %d\n", rep.TUs)
		fmt.Fprintf(os.Stderr, "folded functions:  %d (%d groups)\n", rep.FoldedFuncs, rep.FoldGroups)
		fmt.Fprintf(os.Stderr, "merged pairs:      %d of %d planned\n", rep.PairsMerged, rep.PairsPlanned)
		fmt.Fprintf(os.Stderr, "exact scoring:     %d pairs (%d summary probes, %d bound skips)\n",
			rep.ExactScoredPairs, rep.ProbePairs, rep.PrunedByBound)
		fmt.Fprintf(os.Stderr, "size (%s):     %d -> %d bytes (%.2f%% reduction)\n",
			tgt.Name(), rep.SizeBefore, rep.SizeAfter,
			100*float64(rep.SizeBefore-rep.SizeAfter)/float64(max(rep.SizeBefore, 1)))
	}
	emit(linked, out)
}

func runPair(mod *fmsa.Module, pair string, tgt tti.Target, level ir.VerifyLevel, quiet bool) {
	names := strings.SplitN(pair, ",", 2)
	if len(names) != 2 {
		fatal(fmt.Errorf("-merge wants two comma-separated names, got %q", pair))
	}
	f1 := mod.FuncByName(strings.TrimSpace(names[0]))
	f2 := mod.FuncByName(strings.TrimSpace(names[1]))
	if f1 == nil || f2 == nil {
		fatal(fmt.Errorf("function pair %q not found in module", pair))
	}
	fmsa.DemotePhis(mod)
	res, err := core.Merge(f1, f2, core.DefaultOptions())
	fatal(err)
	profit := res.Profit(tgt)
	if !quiet {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "aligned %d + %d entries: %d matched, %d divergent\n",
			st.Len1, st.Len2, st.MatchedColumns, st.GapColumns)
		fmt.Fprintf(os.Stderr, "selects: %d, dispatch blocks: %d, func_id: %v\n",
			st.Selects, st.DispatchBlocks, st.HasFuncID)
		fmt.Fprintf(os.Stderr, "cost-model profit (%s): %d bytes\n", tgt.Name(), profit)
	}
	res.Commit()
	verifyGate(mod, level, "post-merge")
}

// verifyGate runs the staged verifier at a pipeline boundary and exits with
// every finding on the first diagnostic.
func verifyGate(m *fmsa.Module, level ir.VerifyLevel, stage string) {
	if level == ir.VerifyOff {
		return
	}
	if diags := ir.VerifyModuleLevel(m, level); len(diags) > 0 {
		fmt.Fprint(os.Stderr, ir.FormatVerifyDiags(diags))
		fatal(fmt.Errorf("%s: verifier reported %d findings", stage, len(diags)))
	}
}

func emit(mod *fmsa.Module, out string) {
	text := fmsa.FormatModule(mod)
	if out == "" {
		fmt.Print(text)
		return
	}
	fatal(os.WriteFile(out, []byte(text), 0o644))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmsa:", err)
		os.Exit(1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
