package main

import (
	"strings"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/linearize"
)

const diffFixture = `
define internal i64 @a(i64 %x) {
entry:
  %r = add i64 %x, 1
  %s = mul i64 %r, 2
  ret i64 %s
}

define internal i64 @b(i64 %x) {
entry:
  %r = add i64 %x, 1
  %extra = xor i64 %r, 5
  %s = mul i64 %extra, 2
  ret i64 %s
}
`

func renderFixture(t *testing.T) string {
	t.Helper()
	mod := ir.MustParseModule("d", diffFixture)
	f1, f2 := mod.FuncByName("a"), mod.FuncByName("b")
	seq1 := linearize.Linearize(f1)
	seq2 := linearize.Linearize(f2)
	return Render(alignEntries(seq1, seq2), seq1, seq2, 40, f1.Name(), f2.Name())
}

func TestRenderAlignmentView(t *testing.T) {
	out := renderFixture(t)
	if !strings.Contains(out, "@a") || !strings.Contains(out, "@b") {
		t.Errorf("headers missing:\n%s", out)
	}
	// The extra xor must appear as a right-only line.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "xor") {
			if !strings.Contains(line, ">") {
				t.Errorf("xor should be marked right-only: %q", line)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("xor line missing:\n%s", out)
	}
	// Shared entries appear on match lines.
	if !strings.Contains(out, "= ") {
		t.Errorf("no matched lines:\n%s", out)
	}
	if !strings.Contains(out, "matched columns") {
		t.Errorf("summary missing:\n%s", out)
	}
}

func TestRenderTruncatesLongLines(t *testing.T) {
	out := renderFixture(t)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") || strings.Contains(line, "=") {
			// Two 40-char cells plus separators.
			if len([]rune(line)) > 2*40+3 {
				t.Errorf("line too long (%d): %q", len(line), line)
			}
		}
	}
}
