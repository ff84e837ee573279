package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestBatchedResultsIdenticalToSerial pins the server-level cross-path
// contract: a job served through the pair batcher (grouped
// RunPairsBatch passes) returns byte-identical results to the same job
// on a batching-disabled server, and the batch counters prove which
// path ran.
func TestBatchedResultsIdenticalToSerial(t *testing.T) {
	batched := newTestService(t, nil)
	serial := newTestService(t, func(cfg *Config) { cfg.BatchLinger = -1 })

	spec := JobSpec{Pairs: 6}
	fb := batched.waitDone(t, batched.postJob(t, spec).ID)
	fs := serial.waitDone(t, serial.postJob(t, spec).ID)
	if fb.State != "done" || fs.State != "done" {
		t.Fatalf("states %q/%q, want done/done", fb.State, fs.State)
	}
	if len(fb.Results) != 6 || len(fs.Results) != 6 {
		t.Fatalf("results %d/%d, want 6/6", len(fb.Results), len(fs.Results))
	}
	for i := range fb.Results {
		if !reflect.DeepEqual(fb.Results[i], fs.Results[i]) {
			t.Fatalf("pair %d diverges across paths:\nbatched: %+v\nserial:  %+v",
				i, fb.Results[i], fs.Results[i])
		}
	}
	if got := batched.tel.Counter("server.pair_batches").Value(); got == 0 {
		t.Fatal("batched server ran no pair batches")
	}
	if got := batched.tel.Counter("server.batched_pairs").Value(); got != 6 {
		t.Fatalf("server.batched_pairs = %d, want 6", got)
	}
	if got := serial.tel.Counter("server.pair_batches").Value(); got != 0 {
		t.Fatalf("serial server ran %d pair batches, want 0", got)
	}
}

// TestSubmitManyAtomicGroup exercises the array form of POST /v1/jobs:
// the group is accepted atomically through one queue batch, every
// member completes, and an oversized group bounces whole.
func TestSubmitManyAtomicGroup(t *testing.T) {
	s := newTestService(t, nil)

	specs := []JobSpec{
		{PairNames: [][2]string{{"gcc", "swim"}}},
		{PairNames: [][2]string{{"gcc", "art"}}},
	}
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST batch = %d, want 202", resp.StatusCode)
	}
	var statuses []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("accepted %d jobs, want 2", len(statuses))
	}
	for _, st := range statuses {
		final := s.waitDone(t, st.ID)
		if final.State != "done" || len(final.Results) != 1 {
			t.Fatalf("job %s: state %q, %d results", st.ID, final.State, len(final.Results))
		}
	}
	if got := s.tel.Counter("jobqueue.batches").Value(); got != 1 {
		t.Fatalf("jobqueue.batches = %d, want 1", got)
	}

	// A group larger than the whole queue is refused atomically: no
	// member is enqueued or registered.
	before := s.tel.Counter("server.jobs_submitted").Value()
	big := make([]JobSpec, 40) // Capacity is 16
	for i := range big {
		big[i] = JobSpec{PairNames: [][2]string{{"gcc", "swim"}}}
	}
	body, _ = json.Marshal(big)
	resp2, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch = %d, want 429", resp2.StatusCode)
	}
	if got := s.tel.Counter("server.jobs_submitted").Value(); got != before {
		t.Fatalf("jobs_submitted moved %d -> %d on a rejected batch", before, got)
	}
}

// TestNearHitFaultSeedDelta pins the differential re-simulation tier
// end to end: at zero fault rate the fault seed is dead configuration,
// so a job differing from a cached result only in FaultSeed is served
// as a near hit — and the adapted result is identical to what a cold
// full recompute produces.
func TestNearHitFaultSeedDelta(t *testing.T) {
	s := newTestService(t, nil)

	base := JobSpec{PairNames: [][2]string{{"gcc", "swim"}}, FaultSeed: 1}
	delta := JobSpec{PairNames: [][2]string{{"gcc", "swim"}}, FaultSeed: 2}

	f1 := s.waitDone(t, s.postJob(t, base).ID)
	if f1.State != "done" {
		t.Fatalf("base job state %q (err %q)", f1.State, f1.Error)
	}
	f2 := s.waitDone(t, s.postJob(t, delta).ID)
	if f2.State != "done" {
		t.Fatalf("delta job state %q (err %q)", f2.State, f2.Error)
	}
	if got := s.tel.Counter("server.cache_near_hits").Value(); got != 1 {
		t.Fatalf("server.cache_near_hits = %d, want 1", got)
	}
	// The single-knob delta also shares the base runner's profile
	// instead of re-profiling.
	if got := s.tel.Counter("server.profile_shares").Value(); got != 1 {
		t.Fatalf("server.profile_shares = %d, want 1", got)
	}
	if f1.Results[0].Key == f2.Results[0].Key {
		t.Fatal("fault-seed delta produced the same cache key; near-hit tier untested")
	}

	// Equivalence: a cold server recomputing the delta spec in full
	// must produce exactly the near-hit's bytes.
	cold := newTestService(t, nil)
	fc := cold.waitDone(t, cold.postJob(t, delta).ID)
	if fc.State != "done" {
		t.Fatalf("cold job state %q (err %q)", fc.State, fc.Error)
	}
	if cold.tel.Counter("server.cache_near_hits").Value() != 0 {
		t.Fatal("cold server took a near hit; equivalence check is vacuous")
	}
	got, want := f2.Results[0], fc.Results[0]
	got.Cached, want.Cached = false, false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("near-hit result diverges from full recompute:\nnear: %+v\nfull: %+v", got, want)
	}
}

// TestNearHitSwapOverheadGuard pins both sides of the swap-overhead
// rule at the unit level: a zero-swap neighbor adapts verbatim, a
// neighbor that executed swaps never does.
func TestNearHitSwapOverheadGuard(t *testing.T) {
	s := newTestService(t, nil)
	srv := s.srv

	mk := func(overhead uint64) KeySpec {
		return KeySpec{
			Version: keySchemaVersion, CoreDigest: srv.coreDigest,
			BenchA: "gcc", BenchB: "swim", Seed: 7,
			InstrLimit: 1000, ContextSwitch: 100, SwapOverhead: overhead,
			ProfileLimit: 1000, Fidelity: "interval",
		}
	}
	put := func(spec KeySpec, swaps uint64) string {
		key := CacheKey(spec)
		r := PairResult{Pair: "gcc+swim", Key: key}
		r.Proposed.Swaps = swaps
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		srv.cache.Put(key, data)
		srv.registerNear(spec, key)
		return key
	}

	// Zero-swap neighbor at overhead 500: an overhead-900 miss adapts.
	put(mk(500), 0)
	adaptedKey := CacheKey(mk(900))
	data, ok := srv.tryNearHit(mk(900), adaptedKey)
	if !ok {
		t.Fatal("zero-swap overhead delta did not near-hit")
	}
	var r PairResult
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Key != adaptedKey {
		t.Fatalf("adapted result keeps old key %s", r.Key)
	}
	if got := s.tel.Counter("server.cache_near_hits").Value(); got != 1 {
		t.Fatalf("server.cache_near_hits = %d, want 1", got)
	}

	// A neighbor that executed swaps was charged its own overhead: the
	// delta must recompute.
	spec := mk(500)
	spec.BenchB = "art" // separate family
	spec2 := spec
	spec2.SwapOverhead = 900
	put(spec, 3)
	if _, ok := srv.tryNearHit(spec2, CacheKey(spec2)); ok {
		t.Fatal("swap-executing neighbor adapted verbatim; overhead change is not byte-safe")
	}

	// Same-key probe never self-adapts.
	if _, ok := srv.tryNearHit(mk(500), CacheKey(mk(500))); ok {
		t.Fatal("spec near-hit itself")
	}
}
