package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ampsched/internal/server"
)

// apiClient drives the public job API over loopback HTTP. Completion
// is read from the NDJSON stream, never polled, so a job's latency is
// the time until its terminal line arrives.
type apiClient struct {
	hc *http.Client
}

func newAPIClient(conns int) *apiClient {
	return &apiClient{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: 2 * conns,
	}}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// jobRun is one job as the client saw it.
type jobRun struct {
	State   string
	Err     string
	Results []server.PairResult
	// Start is the first POST /v1/jobs, Accepted its 202 (after any
	// 429/503 retry waits) and End the terminal stream line.
	Start, Accepted, End time.Time
}

func (j *jobRun) total() time.Duration  { return j.End.Sub(j.Start) }
func (j *jobRun) submit() time.Duration { return j.Accepted.Sub(j.Start) }

// doneLine prefixes the stream's terminal status line.
var doneLine = []byte(`{"done":`)

// run submits spec to the node at base and follows the job's stream to
// its terminal line. A refusal (429/503) is retried after the server's
// Retry-After hint; the wait counts toward the job's latency.
func (c *apiClient) run(ctx context.Context, base string, spec server.JobSpec) (jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobRun{}, fmt.Errorf("encoding job spec: %w", err)
	}
	jr := jobRun{Start: time.Now()}
	id, err := c.submit(ctx, base, body, &jr)
	if err != nil {
		return jr, err
	}
	jr.Accepted = time.Now()
	if err := c.stream(ctx, base, id, &jr); err != nil {
		return jr, err
	}
	jr.End = time.Now()
	return jr, nil
}

func (c *apiClient) submit(ctx context.Context, base string, body []byte, jr *jobRun) (string, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return "", fmt.Errorf("submitting job: %w", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", fmt.Errorf("reading submit response: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st server.JobStatus
			if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
				return "", fmt.Errorf("decoding submit response %q: %v", data, err)
			}
			return st.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return "", fmt.Errorf("job refused (%s) until the run ended", resp.Status)
			}
		default:
			return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
	}
}

func (c *apiClient) stream(ctx context.Context, base, id string, jr *jobRun) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("streaming job %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream %s: %s: %s", id, resp.Status, bytes.TrimSpace(data))
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if bytes.HasPrefix(line, doneLine) {
				var fin struct {
					State string `json:"state"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(line, &fin); err != nil {
					return fmt.Errorf("decoding terminal line of job %s: %w", id, err)
				}
				jr.State, jr.Err = fin.State, fin.Error
				// Drain so the connection is reused.
				_, _ = io.Copy(io.Discard, br)
				return nil
			}
			var pr server.PairResult
			if err := json.Unmarshal(line, &pr); err != nil {
				return fmt.Errorf("decoding result line of job %s: %w", id, err)
			}
			jr.Results = append(jr.Results, pr)
		}
		if err != nil {
			return fmt.Errorf("stream of job %s ended without a terminal line: %w", id, err)
		}
	}
}

// getJSON fetches base+path into v.
func (c *apiClient) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// loopJob is one finished job of a closed loop.
type loopJob struct {
	Index int
	Job   genJob
	Node  int
	Run   jobRun
	Err   error
}

// closedLoop runs clients closed-loop clients for d: each claims the
// next job index, sends it, and sends the next only after the previous
// one finished. Jobs in flight at the deadline run to completion, and
// the phase, whose length is returned, lasts until the last one does.
// next generates job i (called under a lock, in index order); send
// runs it.
func closedLoop(ctx context.Context, clients int, d time.Duration,
	next func(i int) genJob, send func(ctx context.Context, i int, g genJob) loopJob) ([]loopJob, time.Duration) {
	var (
		mu   sync.Mutex
		n    int
		done []loopJob
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				i := n
				n++
				g := next(i)
				mu.Unlock()
				lj := send(ctx, i, g)
				mu.Lock()
				done = append(done, lj)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sortJobs(done)
	return done, wall
}

// sortJobs orders finished jobs by index.
func sortJobs(js []loopJob) {
	sort.Slice(js, func(a, b int) bool { return js[a].Index < js[b].Index })
}
