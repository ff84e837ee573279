// Pair batching: the server-side feeder of the batch run path. Queue workers running jobs against the same Runner — the
// grouping that guarantees identical core digest, options and
// fidelity, since runners are deduplicated on exactly those — hand
// their pair computations to a shared pairBatcher instead of running
// them one at a time. The batcher coalesces requests across jobs (and
// across one job's own in-flight window) and executes each group as a
// single experiments.RunPairsBatch pass, which shares
// calibration tables and pooled systems across every run in the
// group. Results are byte-identical to an unbatched compute — the
// batch engine's identity suite pins that — so batching is invisible
// to the cache and the API.
package server

import (
	"context"
	"sync"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/telemetry"
)

// defaultBatchLinger is how long the first request in an empty batch
// waits for companions before flushing anyway. Two milliseconds is
// invisible next to a simulation run but long enough for a job's
// in-flight window (launched together) to land in one group.
const defaultBatchLinger = 2 * time.Millisecond

// pairResp is one request's share of a finished batch.
type pairResp struct {
	outcome experiments.PairOutcome
	err     error
}

// pairReq is one queued pair-compute request.
type pairReq struct {
	idx  int
	pair experiments.Pair
	resp chan pairResp // buffered; the flusher never blocks on delivery
}

// pairBatcher coalesces pair-compute requests against one shared
// Runner. Requests accumulate until the group reaches maxPairs or the
// linger timer fires, then flush as one pass.
type pairBatcher struct {
	runner   *experiments.Runner
	ctx      context.Context // server lifetime, NOT any one job's: a shared batch must not die with one requester
	maxPairs int
	linger   time.Duration

	batches *telemetry.Counter
	pairs   *telemetry.Counter

	mu    sync.Mutex
	reqs  []*pairReq
	timer *time.Timer
}

func newPairBatcher(ctx context.Context, runner *experiments.Runner, maxPairs int, linger time.Duration, tel *telemetry.Telemetry) *pairBatcher {
	if linger <= 0 {
		linger = defaultBatchLinger
	}
	return &pairBatcher{
		runner:   runner,
		ctx:      ctx,
		maxPairs: maxPairs,
		linger:   linger,
		batches:  tel.Counter("server.pair_batches"),
		pairs:    tel.Counter("server.batched_pairs"),
	}
}

// run submits one pair's three-scheduler comparison and blocks until
// its batch completes or ctx ends. An abandoned request (ctx canceled
// while waiting) still computes with its batch; only the caller stops
// listening.
func (b *pairBatcher) run(ctx context.Context, i int, p experiments.Pair) pairResp {
	req := &pairReq{idx: i, pair: p, resp: make(chan pairResp, 1)}
	b.mu.Lock()
	b.reqs = append(b.reqs, req)
	var full []*pairReq
	if len(b.reqs) >= b.maxPairs {
		full = b.take()
	} else if len(b.reqs) == 1 {
		// The linger timer bounds how long a lone request waits for
		// batchmates; it schedules RPC-level work and never touches
		// simulation state.
		b.timer = time.AfterFunc(b.linger, b.flushLinger) //ampvet:allow determinism batching latency only; results are byte-identical on every path
	}
	b.mu.Unlock()
	if full != nil {
		b.flush(full)
	}
	select {
	case r := <-req.resp:
		return r
	case <-ctx.Done():
		return pairResp{err: ctx.Err()}
	}
}

// take claims the pending group and disarms the linger timer; callers
// hold b.mu.
func (b *pairBatcher) take() []*pairReq {
	reqs := b.reqs
	b.reqs = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return reqs
}

// flushLinger is the timer path; a group already flushed at the
// high-water mark leaves nothing to take.
func (b *pairBatcher) flushLinger() {
	b.mu.Lock()
	reqs := b.take()
	b.mu.Unlock()
	b.flush(reqs)
}

// flush executes one group as a single pass and delivers
// each request's outcome. Runs fail independently inside the pass, so
// one wedged pair degrades only its own request.
func (b *pairBatcher) flush(reqs []*pairReq) {
	if len(reqs) == 0 {
		return
	}
	idxs := make([]int, len(reqs))
	pairs := make([]experiments.Pair, len(reqs))
	for k, rq := range reqs {
		idxs[k], pairs[k] = rq.idx, rq.pair
	}
	outcomes, errs := b.runner.RunOutcomes(b.ctx, idxs, pairs)
	b.batches.Inc()
	b.pairs.Add(uint64(len(reqs)))
	for k, rq := range reqs {
		rq.resp <- pairResp{outcome: outcomes[k], err: errs[k]}
	}
}

// batcherFor returns the shared batcher for runner, or nil when
// batching does not apply: disabled by config, or a fidelity whose
// batch pass takes one pair (experiments.BatchPairs).
func (s *Server) batcherFor(runner *experiments.Runner) *pairBatcher {
	maxPairs := experiments.BatchPairs(runner.Opt.Fidelity)
	if s.cfg.BatchLinger < 0 || maxPairs <= 1 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batchers[runner]
	if !ok {
		b = newPairBatcher(s.batchCtx, runner, maxPairs, s.cfg.BatchLinger, s.tel)
		s.batchers[runner] = b
	}
	return b
}

// computePair runs one pair under the three schedulers — through the
// shared batcher when one applies, else as its own batch pass — and
// marshals the comparison record. A wedged or panicking run surfaces
// as an error (never cached).
func (s *Server) computePair(ctx context.Context, runner *experiments.Runner, i int, p experiments.Pair, key string) ([]byte, error) {
	var r pairResp
	if b := s.batcherFor(runner); b != nil {
		r = b.run(ctx, i, p)
	} else {
		outcomes, errs := runner.RunOutcomes(ctx, []int{i}, []experiments.Pair{p})
		r = pairResp{outcome: outcomes[0], err: errs[0]}
	}
	if r.err != nil {
		return nil, r.err
	}
	return marshalPairResult(i, key, r.outcome)
}
