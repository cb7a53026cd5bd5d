package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/serve"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

func testSpecs(n int) []workload.FuncSpec {
	specs := make([]workload.FuncSpec, 0, n)
	for i := 0; i < n; i++ {
		seed := int64(100 + i)
		if i%3 == 2 {
			seed = int64(100 + i - 2)
		}
		specs = append(specs, workload.FuncSpec{
			Name:        fmt.Sprintf("f%03d", i),
			Seed:        seed,
			Scalar:      ir.I64(),
			NumParams:   1 + i%3,
			Regions:     2 + i%2,
			OpsPerBlock: 5 + i%4,
			Internal:    true,
		})
	}
	return specs
}

func encodeSpecs(t *testing.T, specs []workload.FuncSpec) []byte {
	t.Helper()
	m := ir.NewModule("sess")
	for _, sp := range specs {
		workload.Generate(m, sp)
	}
	return encodeModule(t, m)
}

func encodeModule(t *testing.T, m *ir.Module) []byte {
	t.Helper()
	data, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func baseOpts() explore.Options {
	opts := explore.DefaultOptions()
	opts.Threshold = 2
	opts.Workers = 2
	return opts
}

func submitWait(t *testing.T, cl *serve.Client, sess uint64, module []byte) serve.Result {
	t.Helper()
	p, err := cl.Submit(sess, module)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// xalancShrink is 483.xalancbmk cut to 350 functions of at most 200
// instructions: large enough that a warm 1% delta skips most of a cold
// session's work, small enough for the race-detector suite.
func xalancShrink(t *testing.T) workload.Profile {
	t.Helper()
	for _, p := range workload.SPECLike() {
		if p.Name == "483.xalancbmk" {
			p.NumFuncs = 350
			p.MaxSize = min(p.MaxSize, 200)
			return p
		}
	}
	t.Fatal("483.xalancbmk missing from the SPEC-like suite")
	return workload.Profile{}
}

// editConsts bumps the first integer constant of frac of m's definitions
// (at least one), which changes their stable hashes and nothing else. salt
// rotates the selection, so successive edits touch different functions.
// Returns the number of functions edited.
func editConsts(m *ir.Module, frac float64, salt int) int {
	defs := m.Definitions()
	want := max(int(float64(len(defs))*frac), 1)
	edited := 0
	for off := 0; off < len(defs) && edited < want; off++ {
		f := defs[(off+salt*want)%len(defs)]
		done := false
		f.Insts(func(in *ir.Inst) {
			for i := 0; i < in.NumOperands() && !done; i++ {
				if ci, ok := in.Operand(i).(*ir.ConstInt); ok {
					in.SetOperand(i, ir.NewConstInt(ci.Type(), ci.V+int64(salt)+1))
					done = true
				}
			}
		})
		if done {
			edited++
		}
	}
	return edited
}

// TestServeWarmMatchesCold: a warm resubmit over the wire reports the same
// merges (digest, counts, sizes) as a cold session fed the same module, and
// the delta classification reflects the edit. Every further resubmission of
// the stream stays warm, and a closed session refuses submits. The inputs
// are a small clone-family corpus and the xalancbmk shrink with a 1%
// constant delta; the latter runs at worker counts 1, 2 and 8, which must
// all agree, and streams five more deltas at one worker. Both run at t=2
// like the other serve tests; TestSessionWarmWorkFloor covers the shrink's
// warm delta at t=20 in process.
func TestServeWarmMatchesCold(t *testing.T) {
	type input struct {
		name    string
		corpus  string
		opts    explore.Options
		modules [][]byte // base, then the resubmission stream
		changed int      // functions the first resubmission edits
	}
	base := testSpecs(40)
	delta := append([]workload.FuncSpec(nil), base...)
	delta[7].ConstSalt++
	inputs := []input{{
		name: "specs", corpus: "specs", opts: baseOpts(), changed: 1,
		modules: [][]byte{encodeSpecs(t, base), encodeSpecs(t, delta)},
	}}
	m := workload.Build(xalancShrink(t))
	shrink := [][]byte{encodeModule(t, m)}
	changed := editConsts(m, 0.01, 1)
	shrink = append(shrink, encodeModule(t, m))
	for salt := 2; salt <= 6; salt++ {
		editConsts(m, 0.01, salt)
		shrink = append(shrink, encodeModule(t, m))
	}
	for _, workers := range []int{1, 2, 8} {
		opts := baseOpts()
		opts.Workers = workers
		inputs = append(inputs, input{
			name: fmt.Sprintf("xalancbmk/workers=%d", workers), corpus: "xalancbmk", opts: opts,
			modules: shrink, changed: changed,
		})
		shrink = shrink[:2] // the stream runs once, at one worker
	}

	// The first worker count of a corpus also runs a cold session on the
	// delta; later worker counts compare their own cold base submit and
	// their warm delta against that one, since cold merges do not depend on
	// the worker count.
	type reference struct{ first, cold serve.Result }
	refs := map[string]reference{}
	for _, in := range inputs {
		_, addr := startServer(t, serve.Config{Explore: in.opts})
		cl, err := serve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		warm, err := cl.Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		first := submitWait(t, cl, warm, in.modules[0])
		if first.Delta.Warm || first.Delta.Added != first.Delta.Funcs {
			t.Fatalf("%s: first submit misclassified: %+v", in.name, first.Delta)
		}
		if first.MergeOps == 0 {
			t.Fatalf("%s: corpus produced no merges; the test corpus is too thin", in.name)
		}
		warmRes := submitWait(t, cl, warm, in.modules[1])
		if !warmRes.Delta.Warm || warmRes.Delta.Changed != in.changed {
			t.Fatalf("%s: warm resubmit misclassified: %+v", in.name, warmRes.Delta)
		}

		ref, seen := refs[in.corpus]
		if !seen {
			cold, err := cl.Open(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref = reference{first: first, cold: submitWait(t, cl, cold, in.modules[1])}
			if ref.cold.Delta.Warm {
				t.Fatalf("%s: fresh session reported warm: %+v", in.name, ref.cold.Delta)
			}
			if err := cl.CloseSession(cold); err != nil {
				t.Fatal(err)
			}
			refs[in.corpus] = ref
		} else if !sameMerges(first, ref.first) {
			t.Fatalf("%s: cold base submit differs from the first worker count\ngot:  %+v\nwant: %+v", in.name, first, ref.first)
		}
		if !sameMerges(warmRes, ref.cold) {
			t.Fatalf("%s: warm and cold disagree over the wire\nwarm: %+v\ncold: %+v", in.name, warmRes, ref.cold)
		}

		for i, mod := range in.modules[2:] {
			if res := submitWait(t, cl, warm, mod); !res.Delta.Warm {
				t.Fatalf("%s: stream resubmission %d ran cold: %+v", in.name, i+1, res.Delta)
			}
		}

		if err := cl.CloseSession(warm); err != nil {
			t.Fatal(err)
		}
		// A submit to a closed session must fail loudly, not hang.
		if _, err := cl.Submit(warm, in.modules[0]); err == nil {
			t.Fatalf("%s: submit to a closed session succeeded", in.name)
		} else {
			var re *serve.RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("%s: got %v, want RemoteError", in.name, err)
			}
		}
	}
}

func sameMerges(a, b serve.Result) bool {
	return a.RecordsDigest == b.RecordsDigest && a.MergeOps == b.MergeOps &&
		a.SizeAfter == b.SizeAfter && a.CandidatesEvaluated == b.CandidatesEvaluated
}

// TestServeOpenOverrides: per-session option overrides apply and isolation
// holds — two sessions with different thresholds explore independently.
func TestServeOpenOverrides(t *testing.T) {
	_, addr := startServer(t, serve.Config{Explore: baseOpts()})
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	module := encodeSpecs(t, testSpecs(40))

	s1, err := cl.Open(&serve.OpenOverrides{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cl.Open(&serve.OpenOverrides{Threshold: 5, Ranking: "lsh"})
	if err != nil {
		t.Fatal(err)
	}
	r1 := submitWait(t, cl, s1, module)
	r2 := submitWait(t, cl, s2, module)
	if r1.MergeOps == 0 || r2.MergeOps == 0 {
		t.Fatalf("override sessions produced no merges: %+v / %+v", r1, r2)
	}
	if _, err := cl.Open(&serve.OpenOverrides{Ranking: "bogus"}); err == nil {
		t.Fatal("bogus ranking override accepted")
	}
}

// TestServeBackpressure: with a single admission slot, a burst of submits
// draws at least one Busy, and retrying after results drain succeeds.
func TestServeBackpressure(t *testing.T) {
	cfg := serve.Config{Explore: baseOpts(), MaxInFlight: 1}
	_, addr := startServer(t, cfg)
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The slot holder is deliberately large so its merge is still running
	// while the burst arrives; the burst modules are small so their refusal
	// is pure admission, not queue pressure.
	large := encodeSpecs(t, testSpecs(300))
	module := encodeSpecs(t, testSpecs(30))

	holder, err := cl.Submit(sess, large)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	var pending []*serve.Pending
	for i := 0; i < 8; i++ {
		p, err := cl.Submit(sess, module)
		if errors.Is(err, serve.ErrBusy) {
			busy++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if busy == 0 {
		t.Fatal("burst past a 1-slot admission bound drew no Busy")
	}
	if _, err := holder.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The refused submits retry cleanly once the slot is free.
	p, err := cl.Submit(sess, module)
	if err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGracefulDrain: Shutdown completes admitted work — its result
// arrives — while refusing new submits.
func TestServeGracefulDrain(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Explore: baseOpts()})
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	module := encodeSpecs(t, testSpecs(40))
	p, err := cl.Submit(sess, module)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()

	res, err := p.Wait()
	if err != nil {
		t.Fatalf("admitted submit lost during drain: %v", err)
	}
	if res.MergeOps == 0 {
		t.Fatal("drained submit produced no merges")
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := serve.Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServeConcurrentClients: independent clients on independent sessions
// make progress concurrently and stay isolated.
func TestServeConcurrentClients(t *testing.T) {
	_, addr := startServer(t, serve.Config{Explore: baseOpts(), MaxInFlight: 4})
	const clients = 3
	results := make(chan serve.Result, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			cl, err := serve.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			sess, err := cl.Open(nil)
			if err != nil {
				errs <- err
				return
			}
			module := encodeSpecs(t, testSpecs(25+i))
			p, err := cl.Submit(sess, module)
			if err != nil {
				errs <- err
				return
			}
			res, err := p.Wait()
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}(i)
	}
	for i := 0; i < clients; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case res := <-results:
			if res.Delta.Warm {
				t.Fatalf("fresh client session reported warm: %+v", res.Delta)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("timed out waiting for concurrent clients")
		}
	}
}

// TestServeRejectsGarbage: a malformed module payload produces an Error
// response and leaves the session usable.
func TestServeRejectsGarbage(t *testing.T) {
	_, addr := startServer(t, serve.Config{Explore: baseOpts()})
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Submit(sess, []byte("not an fmir module"))
	if err != nil {
		t.Fatal(err) // admission happens before decoding
	}
	if _, err := p.Wait(); err == nil {
		t.Fatal("garbage module produced a result")
	}
	// Session still works.
	res := submitWait(t, cl, sess, encodeSpecs(t, testSpecs(30)))
	if res.MergeOps == 0 {
		t.Fatal("session unusable after a rejected submit")
	}
}

// TestServeShutdownAdmissionRace: submits racing Shutdown are either
// admitted and answered, or refused with Busy, or cut off with a connection
// error — an admitted submit is never dropped. Several connections keep
// their readers in the admission path while Shutdown starts, over many
// short-lived servers.
func TestServeShutdownAdmissionRace(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 20
	}
	opts := baseOpts()
	opts.Workers = 1
	module := encodeSpecs(t, testSpecs(3))
	const conns, submitters = 3, 2
	for it := 0; it < iters; it++ {
		srv := serve.New(serve.Config{Explore: opts, MaxInFlight: conns * submitters})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		var wg sync.WaitGroup
		errs := make(chan error, conns*submitters)
		started := make(chan struct{}, conns*submitters)
		var clients []*serve.Client
		for c := 0; c < conns; c++ {
			cl, err := serve.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, cl)
			sess, err := cl.Open(nil)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; ; n++ {
						if n == 1 {
							started <- struct{}{}
						}
						p, err := cl.Submit(sess, module)
						if err != nil {
							var re *serve.RemoteError
							if errors.As(err, &re) {
								errs <- fmt.Errorf("iteration %d: submit: %v", it, err)
							}
							return // Busy or a severed connection: the server drains
						}
						if _, err := p.Wait(); err != nil {
							errs <- fmt.Errorf("iteration %d: admitted submit lost: %v", it, err)
							return
						}
					}
				}()
			}
		}
		for i := 0; i < conns*submitters; i++ {
			<-started
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("iteration %d: shutdown: %v", it, err)
		}
		cancel()
		wg.Wait()
		for _, cl := range clients {
			cl.Close()
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
