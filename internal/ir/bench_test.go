package ir_test

import (
	"io"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// paperScaleCorpora builds the four workload.UnscaledSmall corpora — the
// text that perfbench's paper-scale workload parses and prints — and
// returns the modules with their printed forms.
func paperScaleCorpora(b *testing.B) ([]*ir.Module, []string, int64) {
	b.Helper()
	var mods []*ir.Module
	var texts []string
	var n int64
	for _, p := range workload.UnscaledSmall() {
		m := workload.Build(p)
		s := ir.FormatModule(m)
		mods = append(mods, m)
		texts = append(texts, s)
		n += int64(len(s))
	}
	return mods, texts, n
}

// BenchmarkParse measures ParseModule over the paper-scale corpora; MB/s is
// source text read.
func BenchmarkParse(b *testing.B) {
	_, texts, n := paperScaleCorpora(b)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range texts {
			if _, err := ir.ParseModule("bench", s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPrint measures PrintModule over the paper-scale corpora; MB/s is
// text written.
func BenchmarkPrint(b *testing.B) {
	mods, _, n := paperScaleCorpora(b)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			if err := ir.PrintModule(io.Discard, m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
