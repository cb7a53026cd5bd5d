package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fmsa/internal/ir"
	"fmsa/internal/wire"
)

// Corpus formats accepted by EmitCorpus and cmd/fmsa-gen -format.
const (
	FormatText = "ll"   // textual IR, one .ll file per corpus
	FormatFMIR = "fmir" // binary fmir, one .fmir file per corpus
)

// WriteModuleFile writes m to path in the given format, streaming through a
// buffered writer in both cases.
func WriteModuleFile(path, format string, m *ir.Module) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case FormatText:
		err = ir.PrintModule(f, m)
	case FormatFMIR:
		// The textual format materializes printer-assigned names on disk,
		// so round-trip through it first: a .fmir and a .ll emission of the
		// same module then decode to identical modules, names included.
		var norm *ir.Module
		if norm, err = ir.ParseModule(m.Name, ir.FormatModule(m)); err == nil {
			err = wire.WriteModule(f, norm)
		}
	default:
		err = fmt.Errorf("workload: unknown corpus format %q", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// EmitCorpus builds every profile's module and writes it to dir in the
// given format (FormatText or FormatFMIR), returning file paths in profile
// order. The same profile list emitted in both formats yields semantically
// identical corpora, which the ingest gate (wire's TestIngestFormatsAgree)
// relies on.
func EmitCorpus(dir, format string, profiles []Profile) ([]string, error) {
	paths := make([]string, 0, len(profiles))
	for _, p := range profiles {
		m := Build(p)
		base := strings.ReplaceAll(p.Name, ".", "_")
		path := filepath.Join(dir, base+"."+format)
		if err := WriteModuleFile(path, format, m); err != nil {
			return nil, fmt.Errorf("emitting %s: %w", p.Name, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}
