package explore

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// TestVerifyCleanCorpus is the verifier's soundness gate: full-level
// verification across the workload corpus must report zero diagnostics —
// any finding is either a pipeline bug or a verifier false positive, and
// both block. On the sweep corpora (verifySweepProfiles) exploring with
// verification off must also commit the same merges and print the same
// module. TestVerifyBoundaries checks the IR boundaries before merging.
func TestVerifyCleanCorpus(t *testing.T) {
	profiles := auditProfiles()
	if testing.Short() {
		profiles = profiles[:4]
	}
	sweep := map[workload.Profile]bool{}
	for _, p := range verifySweepProfiles() {
		sweep[p] = true
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			run := func(level ir.VerifyLevel) (*Report, *ir.Module) {
				m := workload.Build(p)
				opts := DefaultOptions()
				opts.Threshold = 2
				opts.Verify = level
				return Run(m, opts), m
			}
			rep, m := run(ir.VerifyFull)
			if len(rep.VerifyDiags) != 0 {
				t.Errorf("verifier flagged the pipeline:\n%s", ir.FormatVerifyDiags(rep.VerifyDiags))
			}
			if rep.MergeOps > 0 && rep.VerifiedFuncs == 0 {
				t.Errorf("%d merges committed but nothing verified", rep.MergeOps)
			}
			if rep.MergeOps > 0 && rep.Phases.Verify == 0 {
				t.Error("verification ran but recorded no time")
			}
			if !sweep[p] {
				return
			}
			offRep, offM := run(ir.VerifyOff)
			if !reflect.DeepEqual(offRep.Records, rep.Records) {
				t.Error("merge decisions differ between verify off and full")
			}
			if ir.FormatModule(offM) != ir.FormatModule(m) {
				t.Error("final module text differs between verify off and full")
			}
		})
	}
}

// verifySweepProfiles is the boundary sweep's corpus: the paper-scale
// profiles plus the quick SPEC-like and MiBench-like subsets.
func verifySweepProfiles() []workload.Profile {
	ps := append([]workload.Profile{}, workload.UnscaledSmall()...)
	ps = append(ps, workload.Quick(workload.SPECLike())...)
	return append(ps, workload.Quick(workload.MiBenchLike())...)
}

// TestVerifyBoundaries: every sweep corpus verifies clean at the full level
// after each IR boundary the pipeline crosses before merging — print and
// reparse, the wire round trip, and a split into four translation units
// (each unit, then the relinked module) — and merging with the fast-level
// gates draws no finding. Over the sweep, the fast level's own time
// (Phases.Verify) stays within 5% of the merge runs' wall clock: a share of
// the same runs, so machine load scales both sides.
func TestVerifyBoundaries(t *testing.T) {
	if raceDetector {
		t.Skip("single-threaded; check.sh's verify-sweep gate runs it without -race")
	}
	t.Parallel()
	var verifyTime, wall time.Duration
	for _, p := range verifySweepProfiles() {
		m := workload.Build(p)
		check := func(boundary string, got *ir.Module, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", p.Name, boundary, err)
			}
			if diags := ir.VerifyModuleLevel(got, ir.VerifyFull); len(diags) != 0 {
				t.Errorf("%s after %s:\n%s", p.Name, boundary, ir.FormatVerifyDiags(diags))
			}
		}
		reparsed, err := ir.ParseModule(p.Name, ir.FormatModule(m))
		check("print→reparse", reparsed, err)
		data, err := wire.Encode(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		decoded, err := wire.Decode(data, wire.Options{Workers: 1})
		check("wire round trip", decoded, err)
		units, err := ir.SplitModule(m, 4)
		if err != nil {
			t.Fatalf("%s: split: %v", p.Name, err)
		}
		for i, u := range units {
			check(fmt.Sprintf("split (unit %d)", i), u, nil)
		}
		linked, err := ir.LinkModules("linked", units...)
		check("link", linked, err)

		opts := DefaultOptions()
		opts.Threshold = 2
		opts.Workers = 1 // no speculative attempts: the share of one thread's work
		opts.Verify = ir.VerifyFast
		start := time.Now()
		rep := Run(m, opts)
		wall += time.Since(start)
		verifyTime += rep.Phases.Verify
		if len(rep.VerifyDiags) != 0 {
			t.Errorf("%s after merging:\n%s", p.Name, ir.FormatVerifyDiags(rep.VerifyDiags))
		}
		if rep.VerifiedFuncs == 0 {
			t.Errorf("%s: merging verified nothing", p.Name)
		}
	}
	share := float64(verifyTime) / float64(wall)
	t.Logf("fast-level verify share: %.2f%% (%v of %v)", 100*share, verifyTime, wall)
	if verifyTime == 0 || share > 0.05 {
		t.Errorf("fast-level verification took %.2f%% of exploration wall clock, budget 5%%", 100*share)
	}
}

// TestVerifyDecisionInvariance: verification is recording-only, so the
// committed merge sequence and the final module must be bit-identical with
// the gate on or off.
func TestVerifyDecisionInvariance(t *testing.T) {
	build := func(level ir.VerifyLevel) (*Report, string) {
		m := workload.Build(demoProfile(11))
		opts := DefaultOptions()
		opts.Threshold = 3
		opts.Verify = level
		rep := Run(m, opts)
		return rep, ir.FormatModule(m)
	}
	offRep, offText := build(ir.VerifyOff)
	for _, level := range []ir.VerifyLevel{ir.VerifyFast, ir.VerifyFull} {
		rep, text := build(level)
		if !reflect.DeepEqual(offRep.Records, rep.Records) {
			t.Errorf("%v: merge decisions differ from verify-off", level)
		}
		if text != offText {
			t.Errorf("%v: final module text differs from verify-off", level)
		}
		if len(rep.VerifyDiags) != 0 {
			t.Errorf("%v: unexpected findings:\n%s", level, ir.FormatVerifyDiags(rep.VerifyDiags))
		}
	}
	if offRep.VerifiedFuncs != 0 || offRep.Phases.Verify != 0 {
		t.Error("verify-off still verified something")
	}
}
