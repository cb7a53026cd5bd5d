// Command fmsa-diff renders the sequence alignment between two functions
// side by side — the paper's Fig. 5 view. Matched entries appear in both
// columns, entries unique to one function appear alone, making it easy to
// see exactly what the merger would share and what it would guard.
//
//	fmsa-diff -f1 glist_add_float32 -f2 glist_add_float64 module.ll
//
// With -summary, the argument is a binary .fmsum stream (fmsa-gen -summary)
// and the tool prints its round-1 function-summary table — one row per
// function with the stable hash and the flags the cross-TU planner keys on:
//
//	fmsa-diff -summary out/462_libquantum.fmsum
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fmsa/internal/align"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
	"fmsa/internal/wire"
)

func main() {
	var (
		name1   = flag.String("f1", "", "first function")
		name2   = flag.String("f2", "", "second function")
		width   = flag.Int("w", 46, "column width")
		verify  = flag.String("verify", "full", "IR verification level after loading: off, fast or full")
		summary = flag.Bool("summary", false, "print the round-1 function-summary table of a .fmsum file")
	)
	flag.Parse()
	if *summary {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: fmsa-diff -summary corpus.fmsum")
			flag.Usage()
			os.Exit(2)
		}
		printSummary(flag.Arg(0))
		return
	}
	if flag.NArg() != 1 || *name1 == "" || *name2 == "" {
		fmt.Fprintln(os.Stderr, "usage: fmsa-diff -f1 <name> -f2 <name> module.{ll,fmir}")
		flag.Usage()
		os.Exit(2)
	}

	level, err := ir.ParseVerifyLevel(*verify)
	fatal(err)

	// Accepts textual IR or binary fmir, sniffed by magic bytes.
	mod, err := wire.LoadFile(flag.Arg(0), 0)
	fatal(err)
	if diags := ir.VerifyModuleLevel(mod, level); len(diags) > 0 {
		fatal(fmt.Errorf("input fails verification:\n%s", ir.FormatVerifyDiags(diags)))
	}
	passes.DemotePhisModule(mod)

	f1 := mod.FuncByName(*name1)
	f2 := mod.FuncByName(*name2)
	if f1 == nil || f2 == nil {
		fatal(fmt.Errorf("functions %q / %q not found", *name1, *name2))
	}
	if f1.IsDecl() || f2.IsDecl() {
		fatal(fmt.Errorf("both functions must be definitions"))
	}

	seq1 := linearize.Linearize(f1)
	seq2 := linearize.Linearize(f2)
	steps := alignEntries(seq1, seq2)
	fmt.Print(Render(steps, seq1, seq2, *width, f1.Name(), f2.Name()))
}

// alignEntries aligns two linearized functions the way the merger does:
// both are encoded through one interning table, aligned over their codes,
// and mismatch columns split into gap pairs.
func alignEntries(seq1, seq2 []linearize.Entry) []align.Step {
	in := encode.NewInterner()
	a, b := in.Encode(seq1).Codes, in.Encode(seq2).Codes
	return align.DecomposeMismatches(align.AlignCodes(a, b))
}

// Render builds the two-column alignment listing.
func Render(steps []align.Step, seq1, seq2 []linearize.Entry, width int, h1, h2 string) string {
	nm1, nm2 := ir.NewNamer(), ir.NewNamer()
	var sb strings.Builder
	cell := func(s string) string {
		if len(s) > width {
			return s[:width-1] + "…"
		}
		return s + strings.Repeat(" ", width-len(s))
	}
	describe := func(e linearize.Entry, nm *ir.Namer) string {
		if e.IsLabel() {
			return nm.Label(e.Block) + ":"
		}
		return "  " + nm.Inst(e.Inst)
	}

	fmt.Fprintf(&sb, "%s | %s\n", cell("@"+h1), cell("@"+h2))
	fmt.Fprintf(&sb, "%s-+-%s\n", strings.Repeat("-", width), strings.Repeat("-", width))
	matched, gaps := 0, 0
	for _, s := range steps {
		switch s.Op {
		case align.OpMatch:
			matched++
			fmt.Fprintf(&sb, "%s = %s\n",
				cell(describe(seq1[s.I], nm1)), cell(describe(seq2[s.J], nm2)))
		case align.OpGapA:
			gaps++
			fmt.Fprintf(&sb, "%s <\n", cell(describe(seq1[s.I], nm1)))
		case align.OpGapB:
			gaps++
			fmt.Fprintf(&sb, "%s > %s\n", cell(""), cell(describe(seq2[s.J], nm2)))
		}
	}
	fmt.Fprintf(&sb, "%s-+-%s\n", strings.Repeat("-", width), strings.Repeat("-", width))
	total := len(seq1) + len(seq2)
	fmt.Fprintf(&sb, "%d matched columns (shared), %d divergent entries, %.0f%% of %d entries mergeable\n",
		matched, gaps, 100*float64(2*matched)/float64(total), total)
	return sb.String()
}

// printSummary renders a .fmsum stream as per-unit tables: one row per
// function summary, with the planner-relevant flags spelled out.
func printSummary(path string) {
	data, err := os.ReadFile(path)
	fatal(err)
	name, tus, err := wire.DecodeSummaries(data)
	fatal(err)
	fmt.Printf("corpus %s: %d translation units\n", name, len(tus))
	for _, tu := range tus {
		fmt.Printf("\nunit %s (%d functions)\n", tu.Name, len(tu.Funcs))
		fmt.Printf("  %-28s %-16s %5s  %s\n", "function", "stable hash", "insts", "flags")
		for _, fs := range tu.Funcs {
			fmt.Printf("  %-28s %016x %5d  %s\n", fs.Name, fs.Hash, fs.Size, summaryFlags(fs))
		}
	}
}

// summaryFlags spells out one summary's linkage and flag bits.
func summaryFlags(fs wire.FuncSummary) string {
	var parts []string
	if fs.Linkage == ir.InternalLinkage {
		parts = append(parts, "internal")
	}
	for _, f := range []struct {
		bit  byte
		name string
	}{
		{wire.SumSelfEq, "selfeq"},
		{wire.SumUsesGlobals, "uses-globals"},
		{wire.SumUsesInternal, "uses-internal"},
		{wire.SumVariadic, "variadic"},
	} {
		if fs.Flags&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmsa-diff:", err)
		os.Exit(1)
	}
}
