package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ampsched/internal/amp"
	"ampsched/internal/experiments"
	"ampsched/internal/metrics"
	"ampsched/internal/rng"
	"ampsched/internal/server"
	"ampsched/internal/workload"
)

// Result checks. Every returned pair must be non-failed; a seeded
// sample is recomputed through the pair-at-a-time library path on a
// fresh Runner and compared field by field; and a SHA-256 over the
// simulated statistics lets two commits compare their outputs exactly.

// record is the simulated statistics of one pair: what the hash covers
// and what the checks compare. It leaves out the cache key and the
// per-response cached flag.
type record struct {
	Index            int
	Pair             string
	Proposed         server.SchedResult
	HPE              server.SchedResult
	RR               server.SchedResult
	WeightedVsHPEPct float64
	WeightedVsRRPct  float64
	GeoVsHPEPct      float64
	GeoVsRRPct       float64
}

func recordOfPair(pr server.PairResult) record {
	return record{
		Index: pr.Index, Pair: pr.Pair,
		Proposed: pr.Proposed, HPE: pr.HPE, RR: pr.RR,
		WeightedVsHPEPct: pr.WeightedVsHPEPct, WeightedVsRRPct: pr.WeightedVsRRPct,
		GeoVsHPEPct: pr.GeoVsHPEPct, GeoVsRRPct: pr.GeoVsRRPct,
	}
}

func recordOfOutcome(i int, po experiments.PairOutcome) record {
	return newRecord(i, po.Pair, [3]amp.Result{po.Proposed, po.HPE, po.RR}, po.VsHPE, po.VsRR)
}

// newRecord builds the record of pair p at index i from its proposed,
// HPE and Round Robin runs and the proposed scheme's comparisons.
func newRecord(i int, p experiments.Pair, res [3]amp.Result, vsHPE, vsRR metrics.PairComparison) record {
	return record{
		Index: i, Pair: p.Label(),
		Proposed: schedResult(res[0]), HPE: schedResult(res[1]), RR: schedResult(res[2]),
		WeightedVsHPEPct: vsHPE.WeightedPct, WeightedVsRRPct: vsRR.WeightedPct,
		GeoVsHPEPct: vsHPE.GeoPct, GeoVsRRPct: vsRR.GeoPct,
	}
}

// schedResult compresses an amp.Result the way the server's wire
// format does.
func schedResult(res amp.Result) server.SchedResult {
	return server.SchedResult{
		Cycles:     res.Cycles,
		Swaps:      res.Swaps,
		IPCPerWatt: [2]float64{res.Threads[0].IPCPerWatt, res.Threads[1].IPCPerWatt},
		Committed:  [2]uint64{res.Threads[0].Committed, res.Threads[1].Committed},
	}
}

// committed counts the instructions behind a record: both threads
// under all three schedulers.
func (r record) committed() uint64 {
	var n uint64
	for _, s := range []server.SchedResult{r.Proposed, r.HPE, r.RR} {
		n += s.Committed[0] + s.Committed[1]
	}
	return n
}

// hashRecords is the SHA-256 of the records' canonical JSON, one per
// line, in the given order.
func hashRecords(recs []record) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		_ = enc.Encode(r) // a hash.Hash never returns a write error
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checker recomputes pairs pair-at-a-time on Runners of its own,
// independent of every Runner the workload used: one fresh base Runner
// (its own profiling pass) and Runners derived from it for the option
// sets the workload derived its own Runners for.
type checker struct {
	base    *experiments.Runner
	derived map[string]*experiments.Runner
}

func newChecker(base experiments.Options) (*checker, error) {
	r, err := experiments.NewRunner(base)
	if err != nil {
		return nil, fmt.Errorf("checker runner: %w", err)
	}
	return &checker{base: r, derived: map[string]*experiments.Runner{}}, nil
}

func (c *checker) runner(opt experiments.Options) (*experiments.Runner, error) {
	b, err := json.Marshal(opt)
	if err != nil {
		return nil, err
	}
	r, ok := c.derived[string(b)]
	if !ok {
		r = c.base.Derived(opt)
		c.derived[string(b)] = r
	}
	return r, nil
}

// recompute runs pair p at index i under the proposed, HPE and Round
// Robin schedulers and builds its record.
func (c *checker) recompute(opt experiments.Options, i int, p experiments.Pair) (record, error) {
	r, err := c.runner(opt)
	if err != nil {
		return record{}, err
	}
	m, err := r.Matrix()
	if err != nil {
		return record{}, err
	}
	var res [3]amp.Result
	for k, f := range []experiments.SchedFactory{r.ProposedFactory(), r.HPEFactory(m), r.RRFactory(1)} {
		if res[k], err = r.RunPair(i, p, f); err != nil {
			return record{}, err
		}
	}
	vsHPE, err := metrics.Compare(res[0], res[1])
	if err != nil {
		return record{}, err
	}
	vsRR, err := metrics.Compare(res[0], res[2])
	if err != nil {
		return record{}, err
	}
	return newRecord(i, p, res, vsHPE, vsRR), nil
}

// specOptions resolves a job spec against the service's base options
// for the fields the generators set.
func specOptions(base experiments.Options, sp server.JobSpec) experiments.Options {
	opt := base
	if sp.InstrLimit != 0 {
		opt.InstrLimit = sp.InstrLimit
	}
	if sp.FaultSeed != 0 {
		opt.FaultSeed = sp.FaultSeed
	}
	opt.Pairs, opt.Parallelism = 1, 1
	return opt
}

// specPair resolves pair k of an explicit-pair spec.
func specPair(sp server.JobSpec, k int) (experiments.Pair, error) {
	a, err := workload.ByName(sp.PairNames[k][0])
	if err != nil {
		return experiments.Pair{}, err
	}
	b, err := workload.ByName(sp.PairNames[k][1])
	if err != nil {
		return experiments.Pair{}, err
	}
	return experiments.Pair{A: a, B: b}, nil
}

// sample picks up to k distinct indexes of [0, n), seeded.
func sample(seed uint64, n, k int) []int {
	if k > n {
		k = n
	}
	idx := rng.New(mix(seed, 1<<36)).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// verifyRecords compares each sampled record with its recomputation
// and returns the number of mismatches, reporting each to log.
func verifyRecords(got []record, want func(k int) (record, error), log io.Writer) (int, error) {
	bad := 0
	for k, g := range got {
		w, err := want(k)
		if err != nil {
			return bad, fmt.Errorf("recomputing %s: %w", g.Pair, err)
		}
		if g != w {
			bad++
			fmt.Fprintf(log, "result mismatch for %s (index %d):\n  served:     %+v\n  recomputed: %+v\n", g.Pair, g.Index, g, w)
		}
	}
	return bad, nil
}

// profile forces the checker's profiling pass and estimators. On the
// traced run of a service workload, whose own pass runs inside the
// server, their cost at the same options is the profiling layer's
// metrics.
func (c *checker) profile(tr *tracer, res *runResult) {
	// Estimator errors are sticky: recompute returns them.
	p := tr.time("check", 0, "experiments.Runner.Profile", func() { c.base.Profile() })
	m := tr.time("check", 0, "experiments.Runner.Matrix", func() { _, _ = c.base.Matrix() })
	s := tr.time("check", 0, "experiments.Runner.Surface", func() { _, _ = c.base.Surface() })
	if res.Layers != nil {
		res.Layers["experiments.profile_s"] = p.Seconds()
		res.Layers["experiments.matrix_s"] = m.Seconds()
		res.Layers["experiments.surface_s"] = s.Seconds()
	}
}
