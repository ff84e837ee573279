package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/experiments"
	"ampsched/internal/interval"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// paper-sweep: the Fig. 7 comparison through experiments.Runner's
// SweepContext at fig7full's engine settings (sampled fidelity, the
// paper's 4M-cycle context switch), one pair at a time on one worker
// after set-up on nproc. Only the simulation engines do work here.

// Scale of the sweep. Per-pair cost varies 8x across pairs, so the
// work of a random subset of pairs, and with it the rates, depends on
// the seed; the more pairs a run sweeps, the less. The sweep runs 25M
// instructions per run, a twentieth of the paper's 500M, which takes
// one worker 90-140 ms a pair on a shared 2-CPU host, and sweeps eight
// pairs per second of --seconds: 200 pairs in a 25-second run. On that
// host two seeds then differ by 5-10%. Sweeping all 666 pairs would
// remove the seed's effect on the work, but takes one worker about
// 50 s even at 12.5M instructions per run.
const (
	sweepInstrLimit     = 25_000_000
	sweepPairsPerSec    = 8
	sweepCheckPairs     = 2
	profileInstrLimit   = 250_000 // a tenth of the default profiling pass
	sweepWarmInstrLimit = 1_000
)

// sweepWorkers is the sweep's Parallelism; set-up still runs on nproc.
// On a shared 2-CPU host, sweeps on two workers spread by about 20%
// between runs of one seed, against 3-6% on one, because each worker
// then competes with the garbage collector and the host's other
// tenants.
const sweepWorkers = 1

// sweepOptions are the base (profiling) options, which profile on
// setupWorkers, and the sweep's own, which sweeps pairs on
// sweepWorkers.
func sweepOptions(seed uint64, pairs, setupWorkers, sweepWorkers int) (base, full experiments.Options) {
	base = experiments.DefaultOptions()
	base.Seed = seed
	base.ProfileInstrLimit = profileInstrLimit
	base.Parallelism = setupWorkers
	full = base
	full.Parallelism = sweepWorkers
	full.Pairs = pairs
	full.InstrLimit = sweepInstrLimit
	full.ContextSwitch = amp.ContextSwitchCycles
	full.Fidelity = "sampled"
	return base, full
}

// calibrateAll forces the interval engine's per-(core, benchmark)
// calibration for every benchmark on both cores, on workers
// goroutines: the sampled engine's fast-forward tier reads the same
// calibration ledger, so the timed sweep then measures simulation
// alone.
func calibrateAll(base *experiments.Runner, workers int) error {
	opt := base.Opt
	opt.Fidelity = interval.FidelityInterval
	opt.InstrLimit = sweepWarmInstrLimit
	warm := base.Derived(opt)
	warm.Telemetry = nil // keep warm-up runs out of the run-time histogram
	all := workload.All()
	errs := make(chan error, len(all))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(all); k += workers {
				p := experiments.Pair{A: all[k], B: all[(k+1)%len(all)]}
				if _, err := warm.RunPair(k, p, nil); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func runPaperSweep(ctx context.Context, cfg runConfig, tr *tracer) (*runResult, error) {
	res := &runResult{}
	n := max(sweepPairsPerSec*int(cfg.Seconds/time.Second), 1)
	baseOpt, fullOpt := sweepOptions(cfg.Seed, n, cfg.Workers, sweepWorkers)
	base, err := experiments.NewRunner(baseOpt)
	if err != nil {
		return nil, err
	}
	var tel *telemetry.Telemetry
	if tr != nil {
		tel = telemetry.New()
		base.Telemetry = tel
		interval.SetTelemetry(tel)
		defer interval.SetTelemetry(nil)
	}

	// Set-up: the §V profiling pass and both estimators, then the
	// engine calibrations.
	layers := map[string]float64{}
	layers["experiments.profile_s"] = tr.time("setup", 0, "experiments.Runner.Profile", func() { base.Profile() }).Seconds()
	var merr, serr error
	layers["experiments.matrix_s"] = tr.time("setup", 0, "experiments.Runner.Matrix", func() { _, merr = base.Matrix() }).Seconds()
	layers["experiments.surface_s"] = tr.time("setup", 0, "experiments.Runner.Surface", func() { _, serr = base.Surface() }).Seconds()
	if merr != nil || serr != nil {
		return nil, fmt.Errorf("estimators: %v %v", merr, serr)
	}
	tr.time("setup", 0, "interval.calibrate", func() { err = calibrateAll(base, cfg.Workers) })
	if err != nil {
		return nil, fmt.Errorf("calibration warm-up: %w", err)
	}

	full := base.Derived(fullOpt)
	pairs := experiments.RandomPairs(n, cfg.Seed) // the pairs SweepContext draws
	label := make(map[string]int, len(pairs))
	for i, p := range pairs {
		label[p.Label()] = i
	}
	var (
		pmu  sync.Mutex
		done = make([]time.Time, len(pairs))
		// order[k] is the index of the k-th pair to finish.
		order []int
	)
	full.Progress = func(msg string) {
		now := time.Now()
		open, close := strings.IndexByte(msg, '('), strings.IndexByte(msg, ')')
		if !strings.HasPrefix(msg, "pair ") || open < 0 || close < open {
			return
		}
		i, ok := label[msg[open+1:close]]
		if !ok {
			return
		}
		pmu.Lock()
		done[i] = now
		order = append(order, i)
		pmu.Unlock()
	}

	var before snapshot
	if tel != nil {
		before = snapOf(tel.Registry().Snapshot())
	}
	res.Setup = time.Since(cfg.Start)
	start := time.Now()
	sweep, err := full.SweepContext(ctx)
	end := time.Now()
	res.Wall = end.Sub(start)
	res.RSS = retainedRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	root := tr.add("sweep", 0, "experiments.Runner.SweepContext", start, end, fmt.Sprintf("pairs=%d", n))

	// Pair i starts when a worker claims it: the first sweepWorkers
	// pairs at the sweep's start, and pair sweepWorkers+k when the k-th
	// completion (counting from 0) frees a worker.
	workers := sweepWorkers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	startOf := make([]time.Time, len(pairs))
	for i := range startOf {
		startOf[i] = start
	}
	for k, i := range order {
		if j := workers + k; j < len(pairs) {
			startOf[j] = done[i]
		}
	}
	for i, p := range pairs {
		if done[i].IsZero() {
			continue
		}
		d := done[i].Sub(startOf[i])
		res.LatencyMS = append(res.LatencyMS, float64(d.Nanoseconds())/1e6)
		tr.add("sweep", root, "pair", startOf[i], done[i], p.Label())
	}

	res.Attempted = len(pairs)
	recs := make([]record, len(sweep.Outcomes))
	for i, po := range sweep.Outcomes {
		recs[i] = recordOfOutcome(i, po)
		if po.Failed {
			res.Failed++
			fmt.Fprintf(cfg.Log, "pair %s failed: %s\n", po.Pair.Label(), po.Err)
			continue
		}
		res.Done++
		res.Committed += recs[i].committed()
	}
	res.SHA, res.SHAOver = hashRecords(recs), len(recs)

	if tel != nil {
		after := snapOf(tel.Registry().Snapshot())
		ds := deltaSet{deltas(before, after)}
		res.Deltas = map[string]map[string]metricDelta{"runner": ds[0]}
		layers["experiments.sweep_s"] = res.Wall.Seconds()
		layers["experiments.pair_s_p50"] = quantileOf(res.LatencyMS, 0.5) / 1e3
		layers["experiments.pair_s_max"] = quantileOf(res.LatencyMS, 1) / 1e3
		if len(order) == len(pairs) {
			// The first worker goes idle at the first completion that
			// finds no pair left to claim.
			idle := done[order[len(pairs)-workers]]
			layers["experiments.straggler_s"] = end.Sub(idle).Seconds()
		}
		runLayers(layers, ds, []snapshot{after}, res.Committed)
		res.Layers = layers
	}

	// Result check: recompute a seeded sample on a fresh Runner.
	chk, err := newChecker(baseOpt)
	if err != nil {
		return nil, err
	}
	var sampled []record
	for _, i := range sample(cfg.Seed, len(recs), sweepCheckPairs) {
		if !sweep.Outcomes[i].Failed {
			sampled = append(sampled, recs[i])
		}
	}
	res.Mismatch, err = verifyRecords(sampled, func(k int) (record, error) {
		return chk.recompute(fullOpt, sampled[k].Index, pairs[sampled[k].Index])
	}, cfg.Log)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runLayers fills the per-layer metrics every workload reads from the
// Runner telemetry the program exports: timed-phase deltas ds, final
// snapshots after, and the instructions fresh simulations committed.
func runLayers(layers map[string]float64, ds deltaSet, after []snapshot, fresh uint64) {
	layers["experiments.run_wall_us_p50"] = ds.quantile("experiments.run_wall_us", 0.5)
	layers["experiments.host_ns_per_instr"] = ratio(ds.histSum("experiments.run_wall_us")*1e3, float64(fresh))
	layers["experiments.pairs_failed"] = ds.sum("experiments.pairs_failed")
	// Calibrations count over the whole run, set-up included; the hit
	// ratio covers the timed phase.
	var total float64
	for _, s := range after {
		total += s["interval.calibrations"].Value
	}
	layers["interval.calibrations"] = total
	hits := ds.sum("interval.cal_cache_hits")
	layers["interval.cal_hit_ratio"] = ratio(hits, hits+ds.sum("interval.calibrations"))
	layers["amp.runs"] = ds.sum("amp.runs")
	layers["amp.swaps"] = ds.sum("amp.swaps")
	layers["amp.wedges"] = ds.sum("amp.wedges")
	layers["sched.decisions"] = ds.sumMatch("sched.", ".decisions")
}
