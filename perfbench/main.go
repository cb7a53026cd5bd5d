// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the public entry points of the merging pipeline, checks
// every output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics read from spans it records around its own calls and
// from the reports the program returns) as one JSON object on the last line
// of standard output:
//
//	perfbench --workload lto-t10 --seed 19 --seconds 15 --trace 0
//
// --workload all runs every workload untraced and then traced at its
// default seed and prints both tables plus the tracing overhead.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloadDef names one workload with its default and held-out seeds.
type workloadDef struct {
	name        string
	defaultSeed int64
	heldOutSeed int64
	run         func(cfg config) (*outcome, error)
}

// Default seeds: each keeps its corpus exactly as generated (lto-t10's is
// BENCH_PR5's 483.xalancbmk corpus). The held-out seeds are for checking a
// gain on a layout it was not tuned on.
const (
	ltoSeed        = 19
	paperScaleSeed = 1
	serveSeed      = 7
)

var workloads = []workloadDef{
	{name: "lto-t10", defaultSeed: ltoSeed, heldOutSeed: 23, run: func(c config) (*outcome, error) { return runBatch(ltoT10, c) }},
	{name: "paper-scale", defaultSeed: paperScaleSeed, heldOutSeed: 5, run: func(c config) (*outcome, error) { return runBatch(paperScale, c) }},
	{name: "serve-delta", defaultSeed: serveSeed, heldOutSeed: 11, run: runServeDelta},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// stateDir holds the determinism records and the written spans.
	stateDir string
	// quick shrinks every repetition count to a smoke-test pass.
	quick bool
}

// minOps is the fewest operations a run measures, whatever its duration:
// three for a median, four in a traced run so that two are traced.
func (c config) minOps() int {
	n := 3
	if c.quick {
		n = 1
	}
	if c.trace {
		n++
	}
	return n
}

// setups is how many times a run sets up; setup_s is the median.
func (c config) setups() int {
	if c.quick {
		return 1
	}
	return 3
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, every one on every
// workload.
var endToEnd = []metricDef{
	{"compile_s", "s"},
	{"size_reduction_pct", "%"},
	{"runtime_overhead", "ratio"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer a workload
// bypasses reads 0.
var perLayer = []metricDef{
	{"wire.decode_ms", "ms"},
	{"ir.link_ms", "ms"},
	{"baseline.identical_ms", "ms"},
	{"explore.run_ms", "ms"},
	{"explore.alloc_mb", "MB"},
	{"ir.verify_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"ir.parse_ms", "ms"},
	{"ir.print_ms", "ms"},
	{"explore.ranking_ms", "ms"},
	{"explore.rank_probes", "count"},
	{"explore.prefilter_skip_ratio", "ratio"},
	{"explore.rank_fallbacks", "count"},
	{"align.ms", "ms"},
	{"align.cells", "count"},
	{"align.ns_per_cell", "ns"},
	{"align.memo_hit_ratio", "ratio"},
	{"core.codegen_ms", "ms"},
	{"core.bound_skip_ratio", "ratio"},
	{"linearize.ms", "ms"},
	{"linearize.cache_hit_ratio", "ratio"},
	{"fingerprint.ms", "ms"},
	{"core.update_calls_ms", "ms"},
	{"analysis.audit_ms", "ms"},
	{"ir.verify_gate_ms", "ms"},
	{"explore.unaccounted_ms", "ms"},
	{"explore.merge_ops", "count"},
	{"explore.candidates", "count"},
	{"explore.commit_ratio", "ratio"},
	{"serve.submit_p90_ms", "ms"},
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p90_ms", "ms"},
	{"serve.queue_p50_ms", "ms"},
	{"serve.queue_p90_ms", "ms"},
	{"simdb.open_ms", "ms"},
	{"simdb.segment_mb", "MB"},
	{"simdb.store_hit_ratio", "ratio"},
	{"explore.session.changed", "count"},
	{"explore.session.seeded_ratio", "ratio"},
	{"explore.session.neg_hits", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics maps span names (and "<name>.self" self times) to the
// per-layer metric their per-operation median feeds.
var spanMetrics = map[string]string{
	"wire.decode":        "wire.decode_ms",
	"ir.link":            "ir.link_ms",
	"baseline.identical": "baseline.identical_ms",
	"explore.run":        "explore.run_ms",
	"explore.run.self":   "explore.unaccounted_ms",
	"ir.verify":          "ir.verify_ms",
	"wire.encode":        "wire.encode_ms",
	"ir.parse":           "ir.parse_ms",
	"ir.print":           "ir.print_ms",
	"fingerprint":        "fingerprint.ms",
	"explore.ranking":    "explore.ranking_ms",
	"linearize":          "linearize.ms",
	"align":              "align.ms",
	"core.codegen":       "core.codegen_ms",
	"core.update_calls":  "core.update_calls_ms",
	"analysis.audit":     "analysis.audit_ms",
	"ir.verify_gate":     "ir.verify_gate_ms",
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	tracer            *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed operation or check.
func (o *outcome) fail(msg string) {
	o.failed++
	o.failures = append(o.failures, msg)
}

// addLayers fills the per-layer metrics from the recorded spans and the
// per-operation counters (median over traced operations).
func (o *outcome) addLayers(tr *tracer, counters []map[string]float64) {
	for name, v := range tr.layerTimes() {
		if m, ok := spanMetrics[name]; ok {
			o.layer[m] = v
		}
	}
	byName := map[string][]float64{}
	for _, c := range counters {
		for k, v := range c {
			byName[k] = append(byName[k], v)
		}
	}
	for k, vs := range byName {
		o.layer[k] = median(vs)
	}
}

// overhead records the traced minus the untraced median operation time.
func (o *outcome) overhead(traced, untraced []float64) {
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	t, u := median(traced), median(untraced)
	o.layer["trace.overhead_ms"] = 1000 * (t - u)
	o.layer["trace.overhead_pct"] = 100 * (t - u) / u
}

// determinism holds the values that must be identical across every run of
// one build at one seed.
type determinism struct {
	SizeReductionPct float64 `json:"size_reduction_pct"`
	RuntimeOverhead  float64 `json:"runtime_overhead"`
	MergeOps         int     `json:"merge_ops"`
	AlignCells       int64   `json:"align_cells"`
	OutputDigest     string  `json:"output_digest"`
}

// checkDeterminism compares d with the record an earlier run of the same
// build at the same seed left in the state directory, or leaves the record.
func (o *outcome) checkDeterminism(d *determinism, cfg config) {
	build, err := buildID()
	if err != nil {
		o.fail("determinism record: " + err.Error())
		return
	}
	path := filepath.Join(cfg.stateDir, "determinism", build, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev determinism
		if err := json.Unmarshal(b, &prev); err != nil {
			o.fail("determinism record: " + err.Error())
		} else if prev != *d {
			o.fail(fmt.Sprintf("results drifted from an earlier run at this seed: %+v, earlier %+v", *d, prev))
		}
		return
	}
	b, _ := json.Marshal(d) // a struct of plain fields always marshals
	err = os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		o.fail("determinism record: " + err.Error())
	}
}

// buildID fingerprints the running binary, so determinism records are only
// compared between runs of the same build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload and assembles its result.
func runOne(w workloadDef, cfg config) (result, *outcome, error) {
	out, err := w.run(cfg)
	if err != nil {
		return result{}, nil, err
	}
	if cfg.trace && out.tracer != nil {
		path := filepath.Join(cfg.stateDir, "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := out.tracer.write(path); err != nil {
			out.fail("writing spans: " + err.Error())
		}
	}
	res := result{Metrics: map[string]metric{}}
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: out.layer[m.name], Unit: m.unit}
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			out.fail("peak RSS: " + err.Error())
		}
		out.e2e["peak_rss_mb"] = rss
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if (!ok || v == 0) && out.failed == 0 {
				out.fail(fmt.Sprintf("metric %s was not measured", m.name))
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	res.Failed = out.failed
	res.Attempted = max(out.attempted, out.failed)
	res.Correct = out.failed == 0
	return res, out, nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: lto-t10, paper-scale, serve-delta or all")
		seed     = flag.Int64("seed", 0, "workload seed (default: the workload's default seed)")
		seconds  = flag.Int("seconds", 10, "seconds to measure for")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		stateDir = flag.String("state", filepath.Join(".bench_build", "perfbench"), "directory for determinism records and spans")
		rebase   = flag.Bool("rebaseline", false, "measure explore.Run alone on BENCH_PR5.json's configuration instead")
	)
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}

	if *rebase {
		rebaseline(config{seconds: time.Duration(*seconds) * time.Second})
		return
	}
	if *name == "all" {
		if !runAll(*seconds, *stateDir) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := config{workload: w.name, seed: w.defaultSeed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, stateDir: *stateDir}
	if seedSet {
		cfg.seed = *seed
	}
	res, out, err := runOne(w, cfg)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stdout, w.name, res)
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload untraced then traced at its default seed, each
// run in a child process of its own so that peak RSS and heap state belong
// to that run alone, and prints both tables and the tracing overhead. It
// reports whether every run was correct.
func runAll(seconds int, stateDir string) bool {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, w := range workloads {
		var traced result
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w.name, "--seconds", strconv.Itoa(seconds), "--trace", trace, "--state", stateDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s --trace %s failed: %v\n", w.name, trace, err)
				ok = false
			}
			traced = res
		}
		fmt.Printf("%s tracing overhead: %+.2f ms (%+.2f%%) on the median operation\n", w.name,
			traced.Metrics["trace.overhead_ms"].Value, traced.Metrics["trace.overhead_pct"].Value)
	}
	return ok
}

// printTable writes a result as one "name value unit" line per metric.
func printTable(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d failed_frac=%.4f\n", workload, res.Correct,
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
