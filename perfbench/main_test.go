package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// benchmarkJSON is the part of BENCHMARK.json the self-tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryWorkloadEmitsBenchmarkMetrics makes a short pass over each
// workload, untraced and traced, and checks that it is correct and emits
// exactly the metrics BENCHMARK.json names, with their units.
func TestEveryWorkloadEmitsBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	state := t.TempDir()
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the benchmark", sw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				checkPass(t, spec, w, traced, state)
			})
		}
	}
}

// TestBenchmarkJSONRecordsSeeds checks that BENCHMARK.json records each
// workload's default and held-out seed as the benchmark defines them.
func TestBenchmarkJSONRecordsSeeds(t *testing.T) {
	for _, sw := range readBenchmarkJSON(t).Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the benchmark", sw.Name)
			continue
		}
		if want := fmt.Sprintf("Seed %d, held-out %d", w.defaultSeed, w.heldOutSeed); !strings.Contains(sw.Why, want) {
			t.Errorf("%s: why %q does not record %q", w.name, sw.Why, want)
		}
	}
}

// checkPass makes one short pass over a workload.
func checkPass(t *testing.T, spec benchmarkJSON, w workloadDef, traced bool, state string) {
	cfg := config{workload: w.name, seed: w.defaultSeed, trace: traced, stateDir: state, quick: true}
	res, out, err := runOne(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("failures %v", out.failures)
	}
	want := map[string]string{}
	if traced {
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case got.Unit != unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	if traced {
		checkLayerSeparation(t, w.name, res)
	}
}

// checkLayerSeparation asserts the deterministic part of the layer split
// the workloads were chosen for: the store and the daemon work only on
// serve-delta, whose ranking runs through LSH without falling back.
func checkLayerSeparation(t *testing.T, workload string, res result) {
	t.Helper()
	for name, m := range res.Metrics {
		daemonLayer := strings.HasPrefix(name, "simdb.") || strings.HasPrefix(name, "serve.")
		if !daemonLayer {
			continue
		}
		if workload == "serve-delta" && m.Value == 0 {
			t.Errorf("serve-delta: %s is 0", name)
		}
		if workload != "serve-delta" && m.Value != 0 {
			t.Errorf("%s: %s = %v, want 0 on a batch workload", workload, name, m.Value)
		}
	}
	if workload == "serve-delta" {
		if v := res.Metrics["explore.rank_fallbacks"].Value; v != 0 {
			t.Errorf("serve-delta: %v LSH rank fallbacks", v)
		}
		if res.Metrics["explore.rank_probes"].Value == 0 {
			t.Errorf("serve-delta: no ranking probes")
		}
	}
}

// TestOutputCheckCatchesCorruptedMerge corrupts one constant in a merged
// function and expects the interpreter check to reject the module.
func TestOutputCheckCatchesCorruptedMerge(t *testing.T) {
	p := specProfile("433.milc")
	var ref reference
	var err error
	if ref.ret, ref.weighted, err = runMain(workload.Build(p)); err != nil {
		t.Fatal(err)
	}
	m := workload.Build(p)
	opts := paperScale.opts()
	rep := explore.Run(m, opts)
	if rep.MergeOps == 0 {
		t.Fatal("no merges to corrupt")
	}
	if _, err := checkOutput(m, ref); err != nil {
		t.Fatalf("check rejects the uncorrupted merge: %v", err)
	}
	// @main sums the i64 results, so bump a constant the return value of an
	// i64 merged function is computed from.
	var victim *ir.Inst
	for _, r := range rep.Records {
		if f := m.FuncByName(r.Merged); f != nil && f.ReturnType() == ir.I64() {
			var i int
			if victim, i = returnConst(f); victim != nil {
				ci := victim.Operand(i).(*ir.ConstInt)
				victim.SetOperand(i, ir.NewConstInt(ci.Type(), ci.V+1))
				break
			}
		}
	}
	if victim == nil {
		t.Fatal("no merged function's return value depends on a constant")
	}
	if _, err := checkOutput(m, ref); err == nil {
		t.Fatalf("check accepts a merged module with a bumped constant in %q", ir.FormatInst(victim))
	}
}

// returnConst finds an integer constant f's return value is computed from:
// a breadth-first walk back from the ret instructions through operands and,
// across loads, the values stored to the loaded slot. It returns the
// instruction using the constant and the operand index, or nil.
func returnConst(f *ir.Func) (*ir.Inst, int) {
	var queue []*ir.Inst
	f.Insts(func(in *ir.Inst) {
		if in.Op == ir.OpRet {
			queue = append(queue, in)
		}
	})
	seen := map[*ir.Inst]bool{}
	for len(queue) > 0 {
		in := queue[0]
		queue = queue[1:]
		if seen[in] {
			continue
		}
		seen[in] = true
		if in.Op == ir.OpLoad {
			slot := in.Operand(0)
			f.Insts(func(st *ir.Inst) {
				if st.Op == ir.OpStore && st.Operand(1) == slot {
					queue = append(queue, st)
				}
			})
			continue
		}
		for i := 0; i < in.NumOperands(); i++ {
			switch v := in.Operand(i).(type) {
			case *ir.ConstInt:
				return in, i
			case *ir.Inst:
				queue = append(queue, v)
			}
		}
	}
	return nil, 0
}

// TestDeterminismRecordDetectsDrift checks that a second run at the same
// seed whose deterministic values moved is counted as a failure.
func TestDeterminismRecordDetectsDrift(t *testing.T) {
	cfg := config{workload: "w", seed: 3, stateDir: t.TempDir()}
	o := newOutcome()
	d := determinism{SizeReductionPct: 4.5, RuntimeOverhead: 1.01, MergeOps: 10, AlignCells: 99}
	o.checkDeterminism(&d, cfg)
	o.checkDeterminism(&d, cfg)
	if o.failed != 0 {
		t.Fatalf("identical runs failed: %v", o.failures)
	}
	d.AlignCells++
	o.checkDeterminism(&d, cfg)
	if o.failed != 1 {
		t.Fatalf("drift gave %d failures, want 1", o.failed)
	}
}

// TestTracerSelfTime checks that a span's self time excludes its children.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("op")
	id := tr.begin("explore.run")
	time.Sleep(5 * time.Millisecond)
	tr.end(id)
	tr.end(root)
	run := time.Duration(tr.spans[id].End - tr.spans[id].Start)
	tr.phase(id, "align", run/4)
	tr.phase(id, "core.codegen", run/4)
	lt := tr.layerTimes()
	runMS := float64(run) / 1e6
	if got := lt["explore.run.self"]; got < runMS/2-1e-6 || got > runMS/2+1e-6 {
		t.Fatalf("self time %v ms, want half of %v ms", got, runMS)
	}
	if tr.spans[len(tr.spans)-1].Op != root {
		t.Fatal("phase spans do not share their operation's root")
	}
	if off := newTracer(false); off.begin("x") != -1 || len(off.spans) != 0 {
		t.Fatal("a disabled tracer recorded a span")
	}
}
