package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintRepoIsClean(t *testing.T) {
	root := "../.."
	for _, a := range analyzers {
		if bad := a.run(root); len(bad) != 0 {
			t.Errorf("%s lint on the repo: %v", a.name, bad)
		}
	}
}

func TestLintUseListMutation(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "value.go", `package ir
type usable struct{ uses []int }
func (u *usable) addUse(x int) { u.uses = append(u.uses, x) }
`)
	write(t, dir, "rogue.go", `package ir
func rogue(u *usable) {
	u.addUse(1)
	u.dropUses(nil)
	u.uses = nil
	_ = &u.uses
}
func reader(u *usable) int { return len(u.uses) }
`)
	bad := lintUseLists(dir)
	if len(bad) != 4 {
		t.Fatalf("want 4 violations (two calls, assign, address-of), got %d: %v", len(bad), bad)
	}
	for _, b := range bad {
		if !strings.Contains(b, "rogue.go") {
			t.Errorf("violation outside rogue.go: %s", b)
		}
	}
}

func TestLintPoolPairing(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "pool.go", `package p
import "sync"
var bufPool sync.Pool
func getBuf(n int) []byte {
	if p, ok := bufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}
func putBuf(s []byte) { bufPool.Put(&s) }
`)
	// ok.go: paired, handed off, and transitively handed off uses.
	write(t, dir, "ok.go", `package p
func paired() {
	b := getBuf(8)
	_ = b
	putBuf(b)
}
func handoff() []byte {
	b := getBuf(8)
	return b[:4]
}
func transitive() {
	b := handoff()
	putBuf(b)
}
`)
	if bad := lintPools(dir); len(bad) != 0 {
		t.Fatalf("clean package flagged: %v", bad)
	}

	// leak.go: a get with neither put nor return.
	write(t, dir, "leak.go", `package p
func leak() int {
	b := getBuf(8)
	return len(b)
}
`)
	bad := lintPools(dir)
	if len(bad) != 1 || !strings.Contains(bad[0], "leak") {
		t.Fatalf("want 1 leak violation, got: %v", bad)
	}
}

// TestLintPoolCodedKernelShape mirrors the coded alignment kernels' scratch
// usage — several buffers from distinct pools in one function — and checks a
// single missing put among them is still flagged.
func TestLintPoolCodedKernelShape(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "pool.go", `package p
import "sync"
var rowPool, dirPool sync.Pool
func getRow(n int) []int32 {
	if p, ok := rowPool.Get().(*[]int32); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int32, n)
}
func putRow(s []int32) { rowPool.Put(&s) }
func getDirs(n int) []byte {
	if p, ok := dirPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}
func putDirs(s []byte) { dirPool.Put(&s) }
`)
	write(t, dir, "kernel.go", `package p
func kernelOK(n, m int) []int {
	prev := getRow(m + 1)
	cur := getRow(m + 1)
	dirs := getDirs((n + 1) * (m + 1))
	out := make([]int, 0)
	putRow(prev)
	putRow(cur)
	putDirs(dirs)
	return out
}
func kernelLeaky(n, m int) []int {
	prev := getRow(m + 1)
	cur := getRow(m + 1)
	dirs := getDirs((n + 1) * (m + 1))
	out := make([]int, 0)
	putRow(prev)
	putDirs(dirs)
	_ = cur
	return out
}
`)
	bad := lintPools(dir)
	if len(bad) != 1 || !strings.Contains(bad[0], "kernelLeaky") || !strings.Contains(bad[0], `"cur"`) {
		t.Fatalf("want exactly the kernelLeaky cur leak, got: %v", bad)
	}
}

// TestLintPoolFieldHandoff mirrors the merger-scratch shape: a pooled value
// parked in a struct field is a hand-off (the owner releases it later), but
// a get that neither puts, returns nor parks is still a leak.
func TestLintPoolFieldHandoff(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "pool.go", `package p
import "sync"
var scratchPool sync.Pool
type scratch struct{ m map[int]int }
type result struct{ sc *scratch }
func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	return s
}
func putScratch(s *scratch) { scratchPool.Put(s) }
`)
	write(t, dir, "ok.go", `package p
func parked() *result {
	sc := getScratch()
	res := &result{}
	res.sc = sc
	return res
}
func errorPathPaired(fail bool) *result {
	sc := getScratch()
	if fail {
		putScratch(sc)
		return nil
	}
	res := &result{}
	res.sc = sc
	return res
}
`)
	if bad := lintPools(dir); len(bad) != 0 {
		t.Fatalf("field hand-off flagged: %v", bad)
	}

	write(t, dir, "leak.go", `package p
func leaky() int {
	sc := getScratch()
	return len(sc.m)
}
`)
	bad := lintPools(dir)
	if len(bad) != 1 || !strings.Contains(bad[0], "leaky") {
		t.Fatalf("want 1 leak violation, got: %v", bad)
	}
}

func TestLintPoolDiscardedGet(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "pool.go", `package p
import "sync"
var bufPool sync.Pool
func discard() { bufPool.Get() }
`)
	bad := lintPools(dir)
	if len(bad) != 1 || !strings.Contains(bad[0], "discarded") {
		t.Fatalf("want 1 discarded-get violation, got: %v", bad)
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"uselist", "poolpair", "maprange", "walltime", "goloopcapture"}
	if len(analyzers) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(analyzers), len(want))
	}
	for i, a := range analyzers {
		if a.name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.name, want[i])
		}
		if a.doc == "" || a.run == nil {
			t.Errorf("analyzer %q missing doc or run", a.name)
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	sel, err := selectAnalyzers(analyzers, "maprange,walltime", "")
	if err != nil || len(sel) != 2 || sel[0].name != "maprange" || sel[1].name != "walltime" {
		t.Fatalf("-only selection wrong: %v, err %v", names(sel), err)
	}
	sel, err = selectAnalyzers(analyzers, "", "poolpair")
	if err != nil || len(sel) != 4 {
		t.Fatalf("-skip selection wrong: %v, err %v", names(sel), err)
	}
	for _, a := range sel {
		if a.name == "poolpair" {
			t.Error("skipped analyzer still selected")
		}
	}
	if _, err := selectAnalyzers(analyzers, "nosuch", ""); err == nil {
		t.Error("unknown -only name not rejected")
	}
	if _, err := selectAnalyzers(analyzers, "", "nosuch"); err == nil {
		t.Error("unknown -skip name not rejected")
	}
	if _, err := selectAnalyzers(analyzers, "uselist", "uselist"); err == nil {
		t.Error("empty selection not rejected")
	}
}

func TestLintMapRange(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "bad.go", `package p
import "fmt"
func printUnsorted(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
func collectUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
type fold struct{ leader string }
func foldsFromGroups(groups map[string][]string) []fold {
	// Summary-table shape: emitting plan entries straight out of a
	// hash-keyed group map leaks map order into the plan.
	var folds []fold
	for h, members := range groups {
		_ = members
		folds = append(folds, fold{leader: h})
	}
	return folds
}
type record struct{ hash uint64 }
func liveUnsorted(table map[uint64][]*record) []*record {
	// Store-table shape: flattening a hash-keyed record table straight into
	// a slice leaks map order into segment bytes.
	var all []*record
	for _, recs := range table {
		all = append(all, recs...)
	}
	return all
}
`)
	write(t, dir, "ok.go", `package p
import "sort"
func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
func count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
func madeHere() map[int]bool {
	seen := make(map[int]bool)
	for k := range seen {
		delete(seen, k)
	}
	return seen
}
func overSlice(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
type fold struct{ leader string }
func foldsInFirstSeenOrder(order []string, groups map[string][]string) []fold {
	// The summary-table idiom internal/global uses: iterate a first-seen
	// order slice and look entries up in the map, never ranging over it.
	var folds []fold
	for _, h := range order {
		if len(groups[h]) > 1 {
			folds = append(folds, fold{leader: h})
		}
	}
	return folds
}
type record struct{ hash uint64 }
func liveSorted(table map[uint64][]*record) []*record {
	// The canonical-order idiom internal/simdb uses: collect the table,
	// then sort by content so the result is history-independent.
	all := make([]*record, 0, len(table))
	for _, recs := range table {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].hash < all[j].hash })
	return all
}
`)
	bad := lintMapRange(dir)
	if len(bad) != 4 {
		t.Fatalf("want 4 violations (print, unsorted append, group-map append, record-table append), got %d: %v", len(bad), bad)
	}
	for _, b := range bad {
		if !strings.Contains(b, "bad.go") {
			t.Errorf("violation outside bad.go: %s", b)
		}
	}
}

func TestLintWallTime(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "bad.go", `package p
import (
	"math/rand"
	"time"
)
func stamp() int64 { return time.Now().UnixNano() }
func jitter() int  { return rand.Intn(3) }
func elapsed(t0 time.Time) time.Duration { return time.Since(t0) }
`)
	write(t, dir, "ok.go", `package p
import "time"
func timeout() time.Duration { return 5 * time.Second }
func format(t0 time.Time) string { return t0.Format(time.RFC3339) }
`)
	bad := lintWallTime(dir)
	if len(bad) != 3 {
		t.Fatalf("want 3 violations (Now, Since, math/rand import), got %d: %v", len(bad), bad)
	}
	for _, b := range bad {
		if !strings.Contains(b, "bad.go") {
			t.Errorf("violation outside bad.go: %s", b)
		}
	}
}

func TestLintGoCapture(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "pool.go", `package p
import "sync"
var bufPool sync.Pool
func getBuf(n int) []byte {
	if p, ok := bufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}
func putBuf(s []byte) { bufPool.Put(&s) }
`)
	write(t, dir, "bad.go", `package p
func capturesPooled(done chan struct{}) {
	buf := getBuf(8)
	go func() {
		buf[0] = 1
		close(done)
	}()
	<-done
	putBuf(buf)
}
func capturesReassigned(items [][]byte, done chan struct{}) {
	var cur []byte
	for _, it := range items {
		cur = it
		go func() {
			_ = cur[0]
			done <- struct{}{}
		}()
	}
}
`)
	write(t, dir, "ok.go", `package p
func passesAsArg(done chan struct{}) {
	buf := getBuf(8)
	go func(b []byte) {
		b[0] = 1
		putBuf(b)
		close(done)
	}(buf)
	<-done
}
func perIterationVar(items [][]byte, done chan struct{}) {
	for _, it := range items {
		go func() {
			_ = it[0]
			done <- struct{}{}
		}()
	}
}
func shadowedInside(done chan struct{}) {
	go func() {
		buf := getBuf(8)
		putBuf(buf)
		close(done)
	}()
	<-done
}
`)
	bad := lintGoCapture(dir)
	if len(bad) != 2 {
		t.Fatalf("want 2 violations (pooled capture, reassigned capture), got %d: %v", len(bad), bad)
	}
	for _, b := range bad {
		if !strings.Contains(b, "bad.go") {
			t.Errorf("violation outside bad.go: %s", b)
		}
	}
}

func names(as []analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.name
	}
	return out
}
