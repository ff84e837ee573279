package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
)

// batchFidelities are the engine fidelities the cross-path identity
// tests pin: the pooled batch pass must be invisible to results at
// every one of them.
var batchFidelities = []string{cpu.FidelityDetailed, interval.FidelityInterval, interval.FidelitySampled}

// withProcs sets GOMAXPROCS to n for the rest of the test, so passes
// recruit pool helpers even on a one-CPU machine.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// hookSched calls tick on its run's first Tick and never moves a
// thread.
type hookSched struct {
	tick   func()
	ticked bool
}

func (h *hookSched) Name() string   { return "hook" }
func (h *hookSched) Reset(amp.View) {}
func (h *hookSched) Tick(amp.View) []amp.Move {
	if !h.ticked {
		h.ticked = true
		h.tick()
	}
	return nil
}

// hook is the factory of a hookSched calling tick.
func hook(tick func()) SchedFactory {
	return func(...sched.Option) amp.MoveScheduler { return &hookSched{tick: tick} }
}

// twoAtOnce reports whether a two-run pass on r drove both runs at
// the same time. The first run to tick waits, up to a second, for the
// other to tick too, which only a second goroutine can bring about.
func twoAtOnce(t *testing.T, r *Runner, p Pair) bool {
	var arrived atomic.Int32
	var together atomic.Bool
	met := make(chan struct{})
	meet := hook(func() {
		if arrived.Add(1) == 2 {
			close(met)
			return
		}
		select {
		case <-met:
			together.Store(true)
		case <-time.After(time.Second):
		}
	})
	_, errs := r.RunPairsBatch(context.Background(), []PairRun{{Pair: p, Factory: meet}, {Pair: p, Factory: meet}})
	for k, err := range errs {
		if err != nil {
			t.Fatalf("rendezvous run %d: %v", k, err)
		}
	}
	return together.Load()
}

// requireHelper fails the test unless a pass on r gets a helper. A
// helper that has just left a pass may not be parked yet when the
// next pass offers, so a few passes are allowed.
func requireHelper(t *testing.T, r *Runner, p Pair) {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		if twoAtOnce(t, r, p) {
			return
		}
	}
	t.Fatal("no helper joined any of 10 passes at GOMAXPROCS 4")
}

// TestRunPairsBatchMatchesPairAtATime is the cross-path identity
// contract: every run of a batch — claimed by whichever of the owner
// and the pool's helpers is free, with pooled systems reused across
// runs — is bit-identical to the same run driven alone through
// RunPairContext (a batch of one).
func TestRunPairsBatchMatchesPairAtATime(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			withProcs(t, 4)
			opt := tinyOptions()
			opt.Fidelity = fid
			ref, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}

			pairs := RandomPairs(3, opt.Seed)
			var runs []PairRun
			for i, p := range pairs {
				runs = append(runs,
					PairRun{Index: i, Pair: p, Factory: got.ProposedFactory()},
					PairRun{Index: i, Pair: p, Factory: got.RRFactory(1)})
			}
			// Two batches on the same runner so the second reuses the
			// pooled systems reset in place by the first.
			for round := 0; round < 2; round++ {
				results, errs := got.RunPairsBatch(context.Background(), runs)
				for k, pr := range runs {
					if errs[k] != nil {
						t.Fatalf("round %d run %d: %v", round, k, errs[k])
					}
					want, err := ref.RunPairContext(context.Background(), pr.Index, pr.Pair, pr.Factory)
					if err != nil {
						t.Fatal(err)
					}
					if results[k] != want {
						t.Fatalf("round %d run %d (%s): batched result diverges\n got %+v\nwant %+v",
							round, k, pr.Pair.Label(), results[k], want)
					}
				}
			}
		})
	}
}

// TestRunPairsBatchEventAndTraceIdentity extends the cross-path
// contract from results to the full instrumentation surface: at every
// fidelity, each batched run publishes exactly the event stream — and
// exactly the canonical trace bytes — that the same run publishes when
// driven alone. Recorders are installed through Runner.RunObserver,
// which both paths call once per run in submission order.
func TestRunPairsBatchEventAndTraceIdentity(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			withProcs(t, 4)
			opt := tinyOptions()
			opt.Fidelity = fid
			ref, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}

			record := func(into *[]*amp.EventRecorder) func(int, Pair) amp.Observer {
				return func(int, Pair) amp.Observer {
					rec := &amp.EventRecorder{}
					*into = append(*into, rec)
					return rec
				}
			}
			var gotRecs, refRecs []*amp.EventRecorder
			got.RunObserver = record(&gotRecs)
			ref.RunObserver = record(&refRecs)

			pairs := RandomPairs(2, opt.Seed)
			var runs []PairRun
			for i, p := range pairs {
				runs = append(runs,
					PairRun{Index: i, Pair: p, Factory: got.ProposedFactory()},
					PairRun{Index: i, Pair: p, Factory: got.RRFactory(1)})
			}
			results, errs := got.RunPairsBatch(context.Background(), runs)
			if len(gotRecs) != len(runs) {
				t.Fatalf("batched path created %d recorders for %d runs", len(gotRecs), len(runs))
			}
			for k, pr := range runs {
				if errs[k] != nil {
					t.Fatalf("run %d: %v", k, errs[k])
				}
				want, err := ref.RunPairContext(context.Background(), pr.Index, pr.Pair, pr.Factory)
				if err != nil {
					t.Fatal(err)
				}
				if results[k] != want {
					t.Fatalf("run %d (%s): batched result diverges under observation", k, pr.Pair.Label())
				}
			}
			if len(refRecs) != len(runs) {
				t.Fatalf("reference path created %d recorders for %d runs", len(refRecs), len(runs))
			}
			for k, pr := range runs {
				ge, re := gotRecs[k].Events(), refRecs[k].Events()
				if len(ge) == 0 {
					t.Fatalf("run %d (%s): no events recorded; identity check is vacuous", k, pr.Pair.Label())
				}
				if !reflect.DeepEqual(ge, re) {
					t.Fatalf("run %d (%s): event streams diverge\nbatched: %d events %+v\nserial:  %d events %+v",
						k, pr.Pair.Label(), len(ge), ge, len(re), re)
				}
				if !bytes.Equal(gotRecs[k].TraceBytes(), refRecs[k].TraceBytes()) {
					t.Fatalf("run %d (%s): trace bytes diverge across paths", k, pr.Pair.Label())
				}
			}
		})
	}
}

// TestBatchedSweepMatchesPairAtATime pins the sweep-level contract:
// the interval sweep's 8-pair claims produce byte-identical outcomes
// to a sweep whose workers claim one pair at a time.
func TestBatchedSweepMatchesPairAtATime(t *testing.T) {
	opt := tinyOptions()
	opt.Fidelity = interval.FidelityInterval
	opt.Pairs = 5
	opt.Parallelism = 2

	ref, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	ref.claimPairs = 1
	got, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	if BatchPairs(opt.Fidelity) <= 1 {
		t.Fatal("interval sweeps should claim several pairs per batch")
	}
	// Share the profiling artifacts so the comparison only exercises
	// the sweep paths.
	got.profile = ref.Profile()

	want, err := ref.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Outcomes, have.Outcomes) {
		t.Fatalf("batched sweep diverges from pair-at-a-time sweep")
	}
}

// faultCounters are the fault layer's injection totals.
var faultCounters = []string{
	"fault.samples_dropped", "fault.samples_stale", "fault.samples_noised",
	"fault.swaps_failed", "fault.swaps_delayed",
}

// TestRunPairsBatchFaultIdentity extends the identity contract to
// fault injection: each run of a pooled batch carries its own
// per-index fault plan, so a batch of N fault-injected runs equals N
// batches of one — in results and in the fault.* counter totals.
func TestRunPairsBatchFaultIdentity(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			withProcs(t, 4)
			opt := tinyOptions()
			opt.Fidelity = fid
			opt.FaultRate = 0.2
			opt.FaultSeed = 9
			runner := func() (*Runner, *telemetry.Telemetry) {
				r, err := NewRunner(opt)
				if err != nil {
					t.Fatal(err)
				}
				r.Telemetry = telemetry.New()
				return r, r.Telemetry
			}
			got, gotTel := runner()
			ref, refTel := runner()

			pairs := RandomPairs(2, opt.Seed)
			var runs []PairRun
			for i, p := range pairs {
				runs = append(runs,
					PairRun{Index: i, Pair: p, Factory: got.ProposedFactory()},
					PairRun{Index: i, Pair: p, Factory: got.RRFactory(1)})
			}
			results, errs := got.RunPairsBatch(context.Background(), runs)
			for k, pr := range runs {
				if errs[k] != nil {
					t.Fatalf("run %d: %v", k, errs[k])
				}
				want, wantErrs := ref.RunPairsBatch(context.Background(), runs[k:k+1])
				if wantErrs[0] != nil {
					t.Fatal(wantErrs[0])
				}
				if results[k] != want[0] {
					t.Fatalf("run %d (%s): batched fault run diverges\n got %+v\nwant %+v",
						k, pr.Pair.Label(), results[k], want[0])
				}
			}
			var injected uint64
			for _, name := range faultCounters {
				g, w := gotTel.Registry().Counter(name).Value(), refTel.Registry().Counter(name).Value()
				if g != w {
					t.Errorf("%s: batch %d, solo %d", name, g, w)
				}
				injected += g
			}
			if injected == 0 {
				t.Fatal("no faults injected; identity check is vacuous")
			}
		})
	}
}

// TestRunPairsBatchIsolatesPanic checks that a panicking scheduler in
// a multi-run batch costs only its own run: the panic surfaces as that
// run's error, its batchmates still equal their solo runs, and the
// pool's helpers — one of which may have recovered the panic — still
// join the next pass.
func TestRunPairsBatchIsolatesPanic(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			withProcs(t, 4)
			opt := tinyOptions()
			opt.Fidelity = fid
			got, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}
			p := RandomPairs(1, opt.Seed)[0]
			runs := []PairRun{
				{Index: 0, Pair: p, Factory: got.ProposedFactory()},
				{Index: 0, Pair: p, Factory: func(...sched.Option) amp.MoveScheduler { return panicSched{} }},
				{Index: 0, Pair: p, Factory: got.RRFactory(1)},
			}
			results, errs := got.RunPairsBatch(context.Background(), runs)
			if errs[1] == nil || !strings.Contains(errs[1].Error(), "panicked") {
				t.Fatalf("panicking run error = %v, want a panic report", errs[1])
			}
			for _, k := range []int{0, 2} {
				if errs[k] != nil {
					t.Fatalf("run %d: %v", k, errs[k])
				}
				want, err := ref.RunPairContext(context.Background(), 0, p, runs[k].Factory)
				if err != nil {
					t.Fatal(err)
				}
				if results[k] != want {
					t.Fatalf("run %d: result diverges from its solo run\n got %+v\nwant %+v", k, results[k], want)
				}
			}
			requireHelper(t, got, p)
		})
	}
}

// TestRunPairsBatchCancelMidPass cancels a pass's context while a
// helper is inside one of its runs. The pass must not return until
// that run has stopped, and the runs in flight report the
// cancellation.
func TestRunPairsBatchCancelMidPass(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			withProcs(t, 4)
			opt := tinyOptions()
			opt.Fidelity = fid
			r, err := NewRunner(opt)
			if err != nil {
				t.Fatal(err)
			}
			p := RandomPairs(1, opt.Seed)[0]
			requireHelper(t, r, p)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := make(chan struct{}) // the second run is being driven
			hold := make(chan struct{})    // keeps the second run in flight
			runs := []PairRun{
				// The first run waits until a second goroutine drives
				// the second run, then cancels the pass.
				{Pair: p, Factory: hook(func() {
					select {
					case <-started:
					case <-time.After(10 * time.Second):
						t.Error("no helper joined the pass")
					}
					cancel()
				})},
				{Pair: p, Factory: hook(func() {
					close(started)
					<-hold
				})},
				{Pair: p, Factory: r.ProposedFactory()},
				{Pair: p, Factory: r.RRFactory(1)},
			}
			returned := make(chan []error, 1)
			go func() {
				_, errs := r.RunPairsBatch(ctx, runs)
				returned <- errs
			}()
			<-ctx.Done()
			select {
			case <-returned:
				t.Fatal("pass returned while a run was still in flight")
			case <-time.After(50 * time.Millisecond):
			}
			close(hold)
			// The first two runs were in flight at the cancel; the
			// others may have finished before it on other goroutines.
			for k, err := range <-returned {
				if (k < 2 || err != nil) && !errors.Is(err, context.Canceled) {
					t.Errorf("run %d: err = %v, want context.Canceled", k, err)
				}
			}
		})
	}
}

// TestBatchScratchKeepsOnlyPoolableSystems checks what a batch leaves
// in the scratch it returns to the pool: sampled engines cannot be
// reset in place, so their systems are dropped, while interval
// systems stay for the next batch to reuse.
func TestBatchScratchKeepsOnlyPoolableSystems(t *testing.T) {
	for _, fid := range []string{interval.FidelitySampled, interval.FidelityInterval} {
		opt := tinyOptions()
		opt.Fidelity = fid
		r, err := NewRunner(opt)
		if err != nil {
			t.Fatal(err)
		}
		pairs := RandomPairs(2, opt.Seed)
		runs := []PairRun{
			{Index: 0, Pair: pairs[0], Factory: r.ProposedFactory()},
			{Index: 1, Pair: pairs[1], Factory: r.RRFactory(1)},
		}
		sc := &runScratch{}
		results, errs := make([]amp.Result, len(runs)), make([]error, len(runs))
		r.run(context.Background(), sc, runs, results, errs)
		for k, err := range errs {
			if err != nil {
				t.Fatalf("%s run %d: %v", fid, k, err)
			}
		}
		held := 0
		for _, b := range sc.slots {
			if b.sys != nil {
				held++
			}
		}
		want := 0
		if fid == interval.FidelityInterval {
			want = len(runs)
		}
		if held != want {
			t.Errorf("%s: scratch holds %d systems after the batch, want %d", fid, held, want)
		}
	}
}

// TestRunPairsBatchEmpty covers the trivial edge.
func TestRunPairsBatchEmpty(t *testing.T) {
	r, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	results, errs := r.RunPairsBatch(context.Background(), nil)
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d results, %d errs", len(results), len(errs))
	}
}
