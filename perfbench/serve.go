package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

// Service plumbing for fleet-skew: loopback listeners, the closed
// loop's send step, /metrics deltas, job accounting and result checks.

const (
	// serveCheckJobs is the number of sampled jobs whose pairs are
	// recomputed after the timed phase.
	serveCheckJobs = 6
	// hashJobs is how many leading jobs results_sha256 covers: jobs are
	// claimed in index order, so the first hashJobs are the same specs
	// in every run of a seed that completes that many.
	hashJobs = 500
)

// httpService serves one handler on a loopback listener.
type httpService struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func serveOn(ln net.Listener, h http.Handler) *httpService {
	s := &httpService{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after shutdown
	}()
	return s
}

// stop closes the listener and every connection and waits for Serve
// to return.
func (s *httpService) stop() {
	_ = s.hs.Close()
	<-s.done
}

// runAll runs specs concurrently against url and fails on any job that
// does not finish with every pair intact.
func runAll(ctx context.Context, c *apiClient, tr *tracer, url, name string, specs []server.JobSpec) error {
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for k, sp := range specs {
		wg.Add(1)
		go func(k int, sp server.JobSpec) {
			defer wg.Done()
			jr, err := c.run(ctx, url, sp)
			tr.add("setup", 0, name, jr.Start, time.Now(), "")
			if err == nil {
				err = jobError(sp, jr)
			}
			errs[k] = err
		}(k, sp)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// jobError reports why a finished job does not count as done: a
// terminal state other than done, a missing pair or a failed pair.
func jobError(sp server.JobSpec, jr jobRun) error {
	if jr.State != "done" {
		return fmt.Errorf("job ended %s: %s", jr.State, jr.Err)
	}
	if len(jr.Results) != len(sp.PairNames) {
		return fmt.Errorf("job returned %d of %d pairs", len(jr.Results), len(sp.PairNames))
	}
	for _, pr := range jr.Results {
		if pr.Failed {
			return fmt.Errorf("pair %s failed: %s", pr.Pair, pr.Err)
		}
	}
	return nil
}

// sendJob returns the closed loop's send step against the nodes at
// urls (job i goes to node i mod len(urls)), recording a span tree
// per job on the traced run.
func sendJob(c *apiClient, tr *tracer, urls []string) func(ctx context.Context, i int, g genJob) loopJob {
	return func(ctx context.Context, i int, g genJob) loopJob {
		node := i % len(urls)
		jr, err := c.run(ctx, urls[node], g.Spec)
		if err == nil {
			err = jobError(g.Spec, jr)
		}
		if tr != nil && !jr.End.IsZero() {
			trace := "job-" + strconv.Itoa(i)
			root := tr.add(trace, 0, "job", jr.Start, jr.End, fmt.Sprintf("kind=%s node=%d", g.Kind, node))
			tr.add(trace, root, "POST /v1/jobs", jr.Start, jr.Accepted, "")
			tr.add(trace, root, "GET /v1/jobs/{id}/stream", jr.Accepted, jr.End, "")
		}
		return loopJob{Index: i, Job: g, Node: node, Run: jr, Err: err}
	}
}

// metricsOf reads each node's /metrics.
func metricsOf(ctx context.Context, c *apiClient, urls []string) ([]snapshot, error) {
	out := make([]snapshot, len(urls))
	for k, u := range urls {
		var body struct {
			Metrics []telemetry.Metric `json:"metrics"`
		}
		if err := c.getJSON(ctx, u+"/metrics", &body); err != nil {
			return nil, err
		}
		out[k] = snapOf(body.Metrics)
	}
	return out, nil
}

func deltasOf(before, after []snapshot) deltaSet {
	ds := make(deltaSet, len(after))
	for k := range after {
		ds[k] = deltas(before[k], after[k])
	}
	return ds
}

// jobStats is what the timed phase's jobs add up to.
type jobStats struct {
	keys    map[string]bool // distinct pair keys returned
	submits []float64       // POST to 202, ms
}

// collectJobs accounts the timed phase's jobs into res and returns the
// records of the first hashJobs jobs.
func collectJobs(res *runResult, jobs []loopJob, cfg runConfig) ([]record, jobStats) {
	st := jobStats{keys: map[string]bool{}}
	var hashed []record
	for _, lj := range jobs {
		res.Attempted++
		if lj.Err != nil {
			res.Failed++
			fmt.Fprintf(cfg.Log, "job %d (%s): %v\n", lj.Index, lj.Job.Kind, lj.Err)
			continue
		}
		res.Done++
		res.LatencyMS = append(res.LatencyMS, ms(lj.Run.total()))
		st.submits = append(st.submits, ms(lj.Run.submit()))
		for _, pr := range lj.Run.Results {
			r := recordOfPair(pr)
			if lj.Job.Kind == kindCold && !pr.Cached {
				res.Committed += r.committed()
			}
			st.keys[pr.Key] = true
			if lj.Index < hashJobs {
				hashed = append(hashed, r)
			}
		}
	}
	return hashed, st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkJobs recomputes the pairs of a seeded sample of finished jobs
// on a fresh Runner at the service's options.
func checkJobs(res *runResult, jobs []loopJob, base experiments.Options, cfg runConfig, tr *tracer) error {
	chk, err := newChecker(base)
	if err != nil {
		return err
	}
	chk.profile(tr, res)
	var done []loopJob
	for _, lj := range jobs {
		if lj.Err == nil {
			done = append(done, lj)
		}
	}
	var (
		got  []record
		opts []experiments.Options
		ps   []experiments.Pair
	)
	for _, k := range sample(cfg.Seed, len(done), serveCheckJobs) {
		lj := done[k]
		for _, pr := range lj.Run.Results {
			p, err := specPair(lj.Job.Spec, pr.Index)
			if err != nil {
				return err
			}
			got = append(got, recordOfPair(pr))
			opts = append(opts, specOptions(base, lj.Job.Spec))
			ps = append(ps, p)
		}
	}
	res.Mismatch, err = verifyRecords(got, func(k int) (record, error) {
		return chk.recompute(opts[k], got[k].Index, ps[k])
	}, cfg.Log)
	return err
}

// serviceLayers fills the server and jobqueue per-layer metrics from
// the nodes' /metrics deltas and the client's spans.
func serviceLayers(layers map[string]float64, ds deltaSet, after []snapshot, res *runResult, st jobStats) {
	runLayers(layers, ds, after, res.Committed)
	layers["server.submit_ms_p50"] = quantileOf(st.submits, 0.5)
	layers["server.submit_ms_p99"] = quantileOf(st.submits, 0.99)
	layers["server.job_latency_us_p50"] = ds.quantile("server.job_latency_us", 0.5)
	// Means, not medians: the histogram's sum is exact, its quantiles
	// only to a factor of sqrt(2).
	var clientMS float64
	for _, v := range res.LatencyMS {
		clientMS += v
	}
	layers["server.client_overhead_ms_mean"] = ratio(clientMS, float64(len(res.LatencyMS))) -
		ratio(ds.histSum("server.job_latency_us"), ds.sum("server.job_latency_us"))/1e3
	hits, misses := ds.sum("server.cache_hits"), ds.sum("server.cache_misses")
	layers["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["server.cache_joined"] = ds.sum("server.cache_joined")
	layers["server.batch_size_mean"] = ratio(ds.sum("server.batched_pairs"), ds.sum("server.pair_batches"))
	layers["server.cache_entries"] = ds.sum("server.cache_entries")
	layers["server.cache_bytes"] = ds.sum("server.cache_bytes")
	layers["jobqueue.wait_us_p50"] = ds.quantile("jobqueue.wait_us", 0.5)
	layers["jobqueue.wait_us_p99"] = ds.quantile("jobqueue.wait_us", 0.99)
	layers["jobqueue.run_us_p50"] = ds.quantile("jobqueue.run_us", 0.5)
	layers["jobqueue.retries"] = ds.sum("jobqueue.retries")
	layers["jobqueue.panics"] = ds.sum("jobqueue.panics")
}
