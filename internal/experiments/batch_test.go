package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
)

// batchFidelities are the engine fidelities the cross-path identity
// tests pin: the interleaved batch pass must be invisible to results
// at every one of them.
var batchFidelities = []string{cpu.FidelityDetailed, interval.FidelityInterval, interval.FidelitySampled}

// TestRunPairsBatchMatchesPairAtATime is the cross-path identity
// contract: every run of a batch — interleaved in small round-robin
// chunks, with pooled systems reused across runs — is bit-identical
// to the same run driven alone through RunPairContext (a batch of
// one).
func TestRunPairsBatchMatchesPairAtATime(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
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
			got.batchWindows = 7 // many interleave turns per run

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
			got.batchWindows = 7 // many interleave turns per run

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
// fault injection: each run of an interleaved batch carries its own
// per-index fault plan, so a batch of N fault-injected runs equals N
// batches of one — in results and in the fault.* counter totals.
func TestRunPairsBatchFaultIdentity(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
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
				r.batchWindows = 7
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
// run's error, and its batchmates still equal their solo runs.
func TestRunPairsBatchIsolatesPanic(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
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
