package wire_test

import (
	"reflect"
	"runtime"
	"testing"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// TestIngestFormatsAgree is the fmir ingest gate. Every quick SPEC-like
// corpus is emitted as textual IR and as binary fmir, and each file is
// loaded with wire.LoadFile. Per corpus, both modules must print
// identically before exploration, the fmir module must verify, and
// exploring both at t=2 must commit identical merge records and final text.
// wire.LoadFiles over each format's paths must return the same modules in
// path order.
func TestIngestFormatsAgree(t *testing.T) {
	profiles := workload.Quick(workload.SPECLike())
	workers := runtime.GOMAXPROCS(0)
	dir := t.TempDir()
	textPaths, err := workload.EmitCorpus(dir, workload.FormatText, profiles)
	if err != nil {
		t.Fatal(err)
	}
	fmirPaths, err := workload.EmitCorpus(dir, workload.FormatFMIR, profiles)
	if err != nil {
		t.Fatal(err)
	}

	// load reads every path with LoadFile and checks that LoadFiles returns
	// the same modules in the same order.
	load := func(paths []string) []*ir.Module {
		all, err := wire.LoadFiles(paths, workers)
		if err != nil {
			t.Fatal(err)
		}
		mods := make([]*ir.Module, len(paths))
		for i, path := range paths {
			if mods[i], err = wire.LoadFile(path, workers); err != nil {
				t.Fatal(err)
			}
			if ir.FormatModule(all[i]) != ir.FormatModule(mods[i]) {
				t.Errorf("LoadFiles module %d differs from LoadFile(%s)", i, path)
			}
		}
		return mods
	}
	textMods, fmirMods := load(textPaths), load(fmirPaths)

	explored := func(m *ir.Module) (*explore.Report, string) {
		opts := explore.DefaultOptions()
		opts.Threshold = 2
		opts.Workers = workers
		rep := explore.Run(m, opts)
		return rep, ir.FormatModule(m)
	}
	for i, p := range profiles {
		textMod, fmirMod := textMods[i], fmirMods[i]
		// Text ingest names the module after its file path while fmir
		// embeds the original name; normalize so the comparison sees only
		// structural differences.
		textMod.Name, fmirMod.Name = p.Name, p.Name
		if ir.FormatModule(textMod) != ir.FormatModule(fmirMod) {
			t.Errorf("%s: decoded module text diverges before exploration", p.Name)
			continue
		}
		if err := ir.VerifyModule(fmirMod); err != nil {
			t.Errorf("%s: decoded fmir module fails verify: %v", p.Name, err)
			continue
		}
		refRep, refText := explored(textMod)
		gotRep, gotText := explored(fmirMod)
		if len(refRep.Records) == 0 {
			t.Errorf("%s: exploration committed nothing; the comparison is vacuous", p.Name)
		}
		if !reflect.DeepEqual(refRep.Records, gotRep.Records) {
			t.Errorf("%s: merge records diverge between text and fmir ingest", p.Name)
		}
		if refText != gotText {
			t.Errorf("%s: final module text diverges between text and fmir ingest", p.Name)
		}
	}
}
