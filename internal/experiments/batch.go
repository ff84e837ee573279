package experiments

import (
	"context"
	"fmt"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/fault"
	"ampsched/internal/interval"
	"ampsched/internal/metrics"
	"ampsched/internal/monitor"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
)

// The run path. Every pair run — RunPair and its variants, the sweep,
// the server's batches — is a batch of one or more amp.Steppers driven
// to completion by one interval.BatchRunner pass over pooled per-worker
// scratch. Runs that share calibration and phase tables keep them
// cache-resident across the whole pass; a batch of one is simply a
// pass with a single run.
//
// Interleaving is invisible to results: runs share no mutable state,
// so a run inside a batch is bit-identical to the same run driven
// alone (the identity suite in batch_test.go pins results, event
// streams and trace bytes at every fidelity).

// PairRun names one scheduler run of one pair inside a batch.
type PairRun struct {
	// Index is the pair's sweep index; it seeds the workloads, so the
	// same (Index, Pair) always sees identical instruction streams.
	Index int
	Pair  Pair
	// Factory builds the run's scheduler (nil = static assignment).
	Factory SchedFactory

	// overhead overrides Options.SwapOverhead (0 = keep); set by
	// RunPairOverhead.
	overhead uint64
}

// BatchPairs is how many pairs one batch pass takes at the given
// fidelity: the pairs a sweep worker claims per turn (three runs
// each), and the server batcher's flush size. Interval runs win from
// interleaving many pairs over shared tables and pooled systems, so
// they batch 8 pairs (24 interleaved systems). At the other fidelities
// a claim is one pair — its three runs still share one pass — which
// keeps sweep progress and pair latency at pair granularity, and the
// server batcher stays off.
func BatchPairs(fidelity string) int {
	if fidelity == interval.FidelityInterval {
		return 8
	}
	return 1
}

// runSlot is one run's reusable state inside a worker's scratch. The
// stepper is a value so re-arming it per run allocates nothing.
type runSlot struct {
	threads [2]amp.Thread
	// sys is the pooled system, reset in place for the next run. It is
	// kept only when Reset can re-arm it (amp.System.Poolable) and it
	// carries no per-run construction state.
	sys    *amp.System
	st     amp.Stepper
	active bool
	// perRun marks a system built with per-run options (fault plan,
	// run observer); it is dropped after the run.
	perRun bool
}

// runScratch is one worker's reusable run state, pooled on
// Runner.pool.
type runScratch struct {
	slots []*runSlot
	br    interval.BatchRunner
	// one, oneRes and oneErr back the single-run entry points, so a
	// RunPair call allocates no slices.
	one    [1]PairRun
	oneRes [1]amp.Result
	oneErr [1]error
}

// grow makes sure the scratch holds at least n slots.
func (sc *runScratch) grow(n int) {
	for len(sc.slots) < n {
		sc.slots = append(sc.slots, &runSlot{})
	}
}

// discard drops everything a panicked pass may have left half-run:
// the queued steppers and every system.
func (sc *runScratch) discard() {
	sc.br = interval.BatchRunner{}
	for _, b := range sc.slots {
		b.sys, b.active, b.perRun = nil, false, false
	}
}

// RunPair executes one pair under the scheduler made by factory. A
// wedged run (watchdog or cycle budget) or a panicking scheduler comes
// back as an error, never as a crash.
func (r *Runner) RunPair(i int, p Pair, factory SchedFactory) (amp.Result, error) {
	return r.runOne(r.baseCtx(), PairRun{Index: i, Pair: p, Factory: factory})
}

// RunPairContext is RunPair bounded by ctx: a canceled context stops
// the simulation at the next check point and surfaces ctx's error
// (wrapped; errors.Is-matchable) with the partial result.
func (r *Runner) RunPairContext(ctx context.Context, i int, p Pair, factory SchedFactory) (amp.Result, error) {
	return r.runOne(ctx, PairRun{Index: i, Pair: p, Factory: factory})
}

// RunPairOverhead is RunPair with an explicit swap overhead (§VI-C).
func (r *Runner) RunPairOverhead(i int, p Pair, factory SchedFactory, overhead uint64) (amp.Result, error) {
	return r.runOne(r.baseCtx(), PairRun{Index: i, Pair: p, Factory: factory, overhead: overhead})
}

// runOne is a batch of one, run in the scratch's own result storage.
func (r *Runner) runOne(ctx context.Context, pr PairRun) (amp.Result, error) {
	sc := r.scratch()
	sc.one[0] = pr
	r.run(ctx, sc, sc.one[:], sc.oneRes[:], sc.oneErr[:])
	res, err := sc.oneRes[0], sc.oneErr[0]
	sc.one[0], sc.oneErr[0] = PairRun{}, nil
	r.pool.Put(sc)
	return res, err
}

// RunPairsBatch executes the given pair runs in one interleaved pass
// and returns their results aligned by position (results[i] and
// errs[i] belong to runs[i]). Each run fails independently: a wedged
// or canceled run reports its error without disturbing the others, and
// a panicking scheduler costs only its own run.
func (r *Runner) RunPairsBatch(ctx context.Context, runs []PairRun) ([]amp.Result, []error) {
	results := make([]amp.Result, len(runs))
	errs := make([]error, len(runs))
	if len(runs) == 0 {
		return results, errs
	}
	sc := r.scratch()
	r.run(ctx, sc, runs, results, errs)
	r.pool.Put(sc)
	return results, errs
}

// scratch takes a worker scratch from the pool.
func (r *Runner) scratch() *runScratch {
	if sc, ok := r.pool.Get().(*runScratch); ok {
		return sc
	}
	return &runScratch{}
}

// run drives runs through one pass. A panic in a pass of more than one
// run replays each run as its own batch of one, so the panic surfaces
// as that run's error alone.
func (r *Runner) run(ctx context.Context, sc *runScratch, runs []PairRun, results []amp.Result, errs []error) {
	if r.runBatch(ctx, sc, runs, results, errs) {
		return
	}
	for i := range runs {
		r.runBatch(ctx, sc, runs[i:i+1], results[i:i+1], errs[i:i+1])
	}
}

// runBatch is the single execution path: it arms every run on sc,
// drives them through one interleaved pass and writes results[i] and
// errs[i]. It reports false when a run of a multi-run batch panicked
// (results are then partial, and run replays); a single run's panic
// becomes its error. Each run's wall time — its share of the pass —
// is observed here and nowhere else.
func (r *Runner) runBatch(ctx context.Context, sc *runScratch, runs []PairRun, results []amp.Result, errs []error) (ok bool) {
	start := time.Now() //ampvet:allow determinism wall-time only feeds the pair-duration histogram, never results
	defer func() {
		if rec := recover(); rec != nil {
			sc.discard()
			if len(runs) > 1 {
				ok = false
				return
			}
			results[0] = amp.Result{}
			errs[0] = fmt.Errorf("experiments: pair %s panicked: %v", runs[0].Pair.Label(), rec)
		}
		// Per-run wall time cannot be attributed inside an interleaved
		// pass; each run observes its share of the pass instead.
		share := time.Since(start) / time.Duration(len(runs)) //ampvet:allow determinism wall-time only feeds the pair-duration histogram, never results
		for i := range runs {
			r.observeRun(runs[i].Pair, share, errs[i])
		}
	}()
	schedOpts, ampOpts, oerr := r.runOpts()
	sc.grow(len(runs))
	sc.br.Windows = r.batchWindows
	for i, pr := range runs {
		results[i], errs[i] = amp.Result{}, oerr
		if oerr == nil {
			errs[i] = r.arm(ctx, sc.slots[i], pr, schedOpts, ampOpts)
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), errs[i])
			continue
		}
		sc.br.Add(&sc.slots[i].st)
	}
	sc.br.Run()
	for i, pr := range runs {
		b := sc.slots[i]
		if !b.active {
			continue
		}
		b.active = false
		results[i], errs[i] = b.st.Result()
		if errs[i] != nil {
			errs[i] = fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), errs[i])
		}
		if b.perRun || !b.sys.Poolable() {
			b.sys = nil
		}
	}
	return true
}

// arm builds run pr on slot b and arms its stepper. Construction is
// one path: the slot's threads are reset in place (generators
// re-seeded), then the pooled system is reset for the run, or a fresh
// one is built when the slot holds none or the run carries per-run
// options — the fault plan (Options.FaultRate) and the RunObserver's
// observer. Both resets are bit-identical to fresh construction, so
// pooling is invisible to results, including under the parallel sweep
// where pool reuse order is scheduling-dependent.
func (r *Runner) arm(ctx context.Context, b *runSlot, pr PairRun, schedOpts []sched.Option, ampOpts []amp.Option) error {
	if b.sys != nil {
		// Flush the previous run's deferred engine state into the old
		// threads before recycling them (see System.Detach).
		b.sys.Detach()
	}
	b.threads[0].Reset(0, pr.Pair.A, r.pairSeed(pr.Index, 0), 0)
	b.threads[1].Reset(1, pr.Pair.B, r.pairSeed(pr.Index, 1), 1<<40)
	threads := [2]*amp.Thread{&b.threads[0], &b.threads[1]}

	var perRun []amp.Option
	if r.Opt.FaultRate > 0 {
		plan := fault.MustNew(fault.Uniform(r.Opt.FaultRate, r.faultSeed(pr.Index)))
		plan.SetTelemetry(r.Telemetry)
		perRun = append(perRun, amp.WithFaultPlan(plan))
		var tag uint64
		schedOpts = append(append([]sched.Option{}, schedOpts...),
			sched.WithObserverFactory(func(window uint64) monitor.Observer {
				tag++
				return plan.Observer(monitor.NewWindowTracker(window), tag)
			}))
	}
	if r.RunObserver != nil {
		if o := r.RunObserver(pr.Index, pr.Pair); o != nil {
			perRun = append(perRun, amp.WithObserver(o))
		}
	}

	var s amp.MoveScheduler
	if pr.Factory != nil {
		s = pr.Factory(schedOpts...)
	}
	overhead := pr.overhead
	if overhead == 0 {
		overhead = r.Opt.SwapOverhead
	}
	cfg := amp.Config{SwapOverheadCycles: overhead, CycleBudget: r.Opt.CycleBudget}
	var err error
	if b.sys != nil && perRun == nil {
		err = b.sys.Reset(threads, s, cfg)
	} else {
		if perRun != nil {
			ampOpts = append(append([]amp.Option{}, ampOpts...), perRun...)
		}
		b.sys, err = amp.NewSystem([2]*cpu.Config{r.IntCfg, r.FPCfg}, threads, s, cfg, ampOpts...)
	}
	if err != nil {
		b.sys = nil
		return err
	}
	b.perRun = perRun != nil
	b.st.Reset(b.sys, ctx, r.Opt.InstrLimit)
	b.active = true
	return nil
}

// runOpts resolves the cached option slices shared by every run. The
// slices never carry per-run state (arm appends fault plans and
// observers onto copies).
func (r *Runner) runOpts() ([]sched.Option, []amp.Option, error) {
	r.optsOnce.Do(func() {
		var f cpu.EngineFactory
		if f, r.optsErr = interval.FactoryFor(r.Opt.Fidelity); r.optsErr != nil {
			return
		}
		r.ampOpts = []amp.Option{amp.WithEngine(f)}
		if r.Telemetry != nil {
			r.schedOpts = []sched.Option{sched.WithTelemetry(r.Telemetry)}
			r.ampOpts = append(r.ampOpts, amp.WithTelemetry(r.Telemetry))
		}
	})
	return r.schedOpts, r.ampOpts, r.optsErr
}

// observeRun publishes one run's wall time and outcome.
func (r *Runner) observeRun(p Pair, d time.Duration, err error) {
	t := r.Telemetry
	if t == nil {
		return
	}
	t.Histogram("experiments.run_wall_us").Observe(uint64(d.Microseconds()))
	if t.Eventing() {
		e := telemetry.NewEvent("pair_run")
		e.Pair = p.Label()
		e.Value = d.Seconds()
		if err != nil {
			e.Detail = err.Error()
		}
		t.Emit(e)
	}
}

// RunOutcomes compares pairs[k] (sweep index idxs[k]) under the three
// schemes — the proposed scheme, HPE over the runner's ratio matrix
// and Round Robin — with all their runs in one batch pass. It returns
// each pair's outcome and error; a failed pair carries the first
// failing run's error in scheme order, or the comparison's. The sweep
// and the server both compare pairs through it.
func (r *Runner) RunOutcomes(ctx context.Context, idxs []int, pairs []Pair) ([]PairOutcome, []error) {
	out := make([]PairOutcome, len(pairs))
	errs := make([]error, len(pairs))
	matrix, err := r.Matrix()
	if err != nil {
		for k, p := range pairs {
			out[k], errs[k] = PairOutcome{Pair: p, Failed: true, Err: err.Error()}, err
		}
		return out, errs
	}
	proposed, hpe, rr := r.ProposedFactory(), r.HPEFactory(matrix), r.RRFactory(1)
	runs := make([]PairRun, 0, 3*len(pairs))
	for k, p := range pairs {
		runs = append(runs,
			PairRun{Index: idxs[k], Pair: p, Factory: proposed},
			PairRun{Index: idxs[k], Pair: p, Factory: hpe},
			PairRun{Index: idxs[k], Pair: p, Factory: rr})
	}
	results, runErrs := r.RunPairsBatch(ctx, runs)
	for k, p := range pairs {
		po := PairOutcome{Pair: p, Proposed: results[3*k], HPE: results[3*k+1], RR: results[3*k+2]}
		err := firstErr(runErrs[3*k : 3*k+3])
		if err == nil {
			if po.VsHPE, err = metrics.Compare(po.Proposed, po.HPE); err == nil {
				po.VsRR, err = metrics.Compare(po.Proposed, po.RR)
			}
		}
		if err != nil {
			po.Failed = true
			po.Err = err.Error()
		}
		out[k], errs[k] = po, err
	}
	return out, errs
}

// firstErr returns the first non-nil error.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
