package main

import (
	"fmt"
	"runtime"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/workload"
)

// benchPR5Median is BENCH_PR5.json's median explore.Run wall time on
// 483.xalancbmk (seed 19, t=10, exact ranking, workers 1, 3 runs).
const benchPR5Median = 9.057170621

// rebaseline measures explore.Run alone on BENCH_PR5.json's configuration
// (no link, no identical-function pre-pass), with lto-t10's run count, and
// prints it beside that file's median with the share no phase accounts for.
func rebaseline(cfg config) {
	opts := ltoT10.opts()
	var walls, unaccounted []float64
	var rep *explore.Report
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < cfg.minOps() || time.Now().Before(deadline); op++ {
		m := workload.Build(specProfile("483.xalancbmk"))
		runtime.GC()
		t0 := time.Now()
		rep = explore.Run(m, opts)
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		unaccounted = append(unaccounted, (wall - rep.Phases.Total()).Seconds())
	}
	med, un := median(walls), median(unaccounted)
	fmt.Printf("explore.Run 483.xalancbmk seed 19 t=10 exact workers=1, no pre-pass: median %.3f s over %d runs (min %.3f s)\n",
		med, len(walls), quantile(walls, 0))
	fmt.Printf("  explore.unaccounted_ms %.0f (%.1f%% of the run); merge_ops %d, align.cells %d\n",
		1000*un, 100*un/med, rep.MergeOps, rep.AlignCells)
	fmt.Printf("  BENCH_PR5.json median %.3f s: now %.2fx faster\n", benchPR5Median, benchPR5Median/med)
}
