package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
// to completion by one pass over pooled per-worker scratch; a batch of
// one is simply a pass with a single run.
//
// A pass is a run pool: its runs sit behind a shared claim cursor, and
// the goroutine that owns the pass claims runs and drives each one to
// completion, as do any of the process-wide helpers (up to
// GOMAXPROCS−1) that are idle when the pass starts. Runs share no
// mutable state, so which goroutine drives a run is invisible to
// results: a run inside a batch is bit-identical to the same run
// driven alone (the identity suite in batch_test.go pins results,
// event streams and trace bytes at every fidelity).

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
// each), and the server batcher's flush size. Interval runs are short,
// so they batch 8 pairs (24 runs over pooled systems) to amortize the
// per-pass set-up. At the other fidelities a claim is one pair — its
// three runs still share one pass — which keeps sweep progress and
// pair latency at pair granularity, and the server batcher stays off.
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
	// wall is the run's wall time, from its claim to its completion on
	// the goroutine that drove it.
	wall time.Duration
}

// runScratch is one worker's reusable run state, pooled on
// Runner.pool. A pass hands it to the helpers that join the pass, so
// it also holds the pass's shared state.
type runScratch struct {
	slots []*runSlot
	// n is the number of slots the current pass drives; next is its
	// claim cursor.
	n    int
	next atomic.Int64
	// joined counts the helpers working on the current pass.
	joined sync.WaitGroup
	// mu guards rec, the first panic recovered from a run of the pass.
	mu  sync.Mutex
	rec any
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
// every system.
func (sc *runScratch) discard() {
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

// RunPairsBatch executes the given pair runs in one pass
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
// drives them through one pass and writes results[i] and errs[i]. It
// reports false when a run of a multi-run batch panicked (results are
// then partial, and run replays); a single run's panic becomes its
// error. Each run's wall time is observed here and nowhere else.
func (r *Runner) runBatch(ctx context.Context, sc *runScratch, runs []PairRun, results []amp.Result, errs []error) (ok bool) {
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
		for i := range runs {
			r.observeRun(runs[i].Pair, sc.slots[i].wall, errs[i])
		}
	}()
	schedOpts, ampOpts, oerr := r.runOpts()
	sc.grow(len(runs))
	for i, pr := range runs {
		results[i], errs[i] = amp.Result{}, oerr
		sc.slots[i].wall = 0
		if oerr == nil {
			errs[i] = r.arm(ctx, sc.slots[i], pr, schedOpts, ampOpts)
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), errs[i])
		}
	}
	sc.pass(len(runs))
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

// helperOffer is how a pass finds the idle helpers: an idle helper
// parks in a receive on it, so a non-blocking send reaches exactly the
// helpers with nothing to do, and a busy pool leaves the owner to run
// everything itself.
var helperOffer = make(chan *runScratch)

// helperCount is the number of helpers started. Helpers are started
// on demand, up to GOMAXPROCS−1, and never exit: a pass starts no
// goroutine, so it allocates nothing.
var helperCount atomic.Int32

// helper joins the passes it is offered, one at a time, for the life
// of the process.
func helper() {
	for sc := range helperOffer {
		sc.claim()
		sc.joined.Done()
	}
}

// pass drives the armed runs of sc.slots[:n] to completion. The
// calling goroutine and every helper that takes the offer claim runs
// off a shared cursor. pass returns only once every joined helper is
// idle again, so no helper touches a slot after it; a run's panic is
// then re-raised on the calling goroutine.
func (sc *runScratch) pass(n int) {
	sc.n, sc.rec = n, nil
	sc.next.Store(0)
	if want := min(runtime.GOMAXPROCS(0), n) - 1; want > 0 {
		startHelpers(want)
		for k := 0; k < want; k++ {
			if !sc.offer() {
				break
			}
		}
	}
	sc.claim()
	sc.joined.Wait()
	if sc.rec != nil {
		panic(sc.rec)
	}
}

// startHelpers makes sure at least want helpers exist.
func startHelpers(want int) {
	for {
		c := helperCount.Load()
		if int(c) >= want {
			return
		}
		if helperCount.CompareAndSwap(c, c+1) {
			go helper()
		}
	}
}

// offer hands the pass to one idle helper, reporting whether one took
// it.
func (sc *runScratch) offer() bool {
	sc.joined.Add(1)
	select {
	case helperOffer <- sc:
		return true
	default:
		sc.joined.Done()
		return false
	}
}

// claim drives runs off the pass's cursor until none is left. A run's
// panic is recovered into sc.rec and ends every worker's claims; the
// runs already in flight on other goroutines finish first.
func (sc *runScratch) claim() {
	defer func() {
		if rec := recover(); rec != nil {
			sc.next.Store(int64(sc.n))
			sc.mu.Lock()
			if sc.rec == nil {
				sc.rec = rec
			}
			sc.mu.Unlock()
		}
	}()
	for {
		i := int(sc.next.Add(1)) - 1
		if i >= sc.n {
			return
		}
		if b := sc.slots[i]; b.active {
			b.drive()
		}
	}
}

// drive runs the slot's armed stepper to completion and records its
// wall time, also when the run panics.
func (b *runSlot) drive() {
	start := time.Now() //ampvet:allow determinism wall-time only feeds the run-duration histogram, never results
	defer func() {
		b.wall = time.Since(start) //ampvet:allow determinism wall-time only feeds the run-duration histogram, never results
	}()
	for !b.st.Step(math.MaxInt) {
	}
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
