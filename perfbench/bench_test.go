package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/server"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	type gen func(seed uint64) func(i int) genJob
	gens := map[string]gen{
		"cold":  func(s uint64) func(int) genJob { return newColdGen(s, 1000).job },
		"fleet": func(s uint64) func(int) genJob { return newFleetGen(s, 1000).job },
	}
	seq := func(next func(int) genJob) []genJob {
		out := make([]genJob, 3000) // past one cold pass (1332 pairs)
		for i := range out {
			out[i] = next(i)
		}
		return out
	}
	for name, g := range gens {
		a, b, c := seq(g(7)), seq(g(7)), seq(g(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different spec sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec sequence", name)
		}
	}
	// paper-sweep's input is Options.Seed: SweepContext draws its
	// pairs with experiments.RandomPairs.
	if _, a := sweepOptions(7, 80, 2, 1); a.Seed != 7 || a.Pairs != 80 || a.Parallelism != 1 {
		t.Errorf("sweep options %+v do not carry the seed, pair count and workers", a)
	}
	if reflect.DeepEqual(experiments.RandomPairs(80, 7), experiments.RandomPairs(80, 8)) {
		t.Error("seeds 7 and 8 draw the same sweep pairs")
	}
}

func TestColdPairsAreNeverRepeated(t *testing.T) {
	g := newColdGen(3, 1000)
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		sp := g.job(i).Spec
		if len(sp.PairNames) != 1 {
			t.Fatalf("job %d has %d pairs, want 1", i, len(sp.PairNames))
		}
		key := fmt.Sprint(sp.PairNames[0], sp.InstrLimit)
		if seen[key] {
			t.Fatalf("job %d repeats pair %s", i, key)
		}
		seen[key] = true
	}
}

func TestWarmupCoversEveryBenchmarkOnBothCores(t *testing.T) {
	first, second := map[string]bool{}, map[string]bool{}
	for _, sp := range warmupSpecs(2, 1000) {
		for _, p := range sp.PairNames {
			first[p[0]], second[p[1]] = true, true
		}
	}
	if len(first) != 37 || len(second) != 37 {
		t.Fatalf("warm-up places %d benchmarks first and %d second, want 37 each", len(first), len(second))
	}
}

// pairResultOf is the wire form of a record.
func pairResultOf(r record) server.PairResult {
	return server.PairResult{
		Index: r.Index, Pair: r.Pair, Proposed: r.Proposed, HPE: r.HPE, RR: r.RR,
		WeightedVsHPEPct: r.WeightedVsHPEPct, WeightedVsRRPct: r.WeightedVsRRPct,
		GeoVsHPEPct: r.GeoVsHPEPct, GeoVsRRPct: r.GeoVsRRPct,
	}
}

func TestCorruptRecordIsCaughtAndCounted(t *testing.T) {
	base := fleetOptions()
	spec := newColdGen(1, base.InstrLimit).job(0)
	chk, err := newChecker(base)
	if err != nil {
		t.Fatal(err)
	}
	p, err := specPair(spec.Spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := chk.recompute(specOptions(base, spec.Spec), 0, p)
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.HPE.Cycles++

	cfg := runConfig{Seed: 1, Log: io.Discard}
	for _, tc := range []struct {
		rec      record
		mismatch int
	}{{good, 0}, {bad, 1}} {
		res := &runResult{Attempted: 1, Done: 1}
		jobs := []loopJob{{Job: spec, Run: jobRun{State: "done", Results: []server.PairResult{pairResultOf(tc.rec)}}}}
		if err := checkJobs(res, jobs, base, cfg, nil); err != nil {
			t.Fatal(err)
		}
		if res.Mismatch != tc.mismatch {
			t.Fatalf("mismatches = %d, want %d", res.Mismatch, tc.mismatch)
		}
		s := res.summary(nil)
		if s.Failed != tc.mismatch || s.Correct != (tc.mismatch == 0) {
			t.Fatalf("summary %+v for %d mismatches", s, tc.mismatch)
		}
		if got, want := res.failedFrac(), float64(tc.mismatch); got != want {
			t.Fatalf("failed_frac = %g, want %g", got, want)
		}
	}
}

func TestCachedJobLatencyFromStream(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and calibrates one pair")
	}
	opt := fleetOptions()
	srv, err := server.New(server.Config{BaseOptions: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	svc := serveOn(ln, srv.Handler())
	defer svc.stop()
	c := newAPIClient(1)
	defer c.close()
	ctx := context.Background()
	spec := newColdGen(1, opt.InstrLimit).job(0).Spec
	if _, err := c.run(ctx, svc.url, spec); err != nil {
		t.Fatal(err)
	}
	// amploadgen polls job status every 25 ms; completion read from
	// the stream must show a cache hit's real latency.
	var lat []float64
	for i := 0; i < 21; i++ {
		jr, err := c.run(ctx, svc.url, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jobError(spec, jr); err != nil {
			t.Fatal(err)
		}
		if !jr.Results[0].Cached {
			t.Fatal("repeat job was not served from the cache")
		}
		lat = append(lat, ms(jr.total()))
	}
	if p50 := quantileOf(lat, 0.5); p50 >= 5 {
		t.Fatalf("cached job p50 %.3f ms, want well under the 25 ms poll interval", p50)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if quantileOf(xs, 0.5) != 3 || quantileOf(xs, 0.99) != 5 || quantileOf(xs, 0) != 1 {
		t.Fatal("nearest-rank quantiles")
	}
}

func TestTracerRecordsParents(t *testing.T) {
	var none *tracer
	if id := none.add("t", 0, "x", time.Now(), time.Now(), ""); id != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	tr := newTracer(time.Now())
	root := tr.add("job-1", 0, "job", time.Now(), time.Now(), "")
	child := tr.add("job-1", root, "POST /v1/jobs", time.Now(), time.Now(), "")
	if tr.spans[child-1].Parent != root || tr.spans[root-1].Parent != 0 {
		t.Fatalf("spans %+v", tr.spans)
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for k, w := range bj.Workloads {
		if w.Name != workloads[k].Name || w.Why != workloads[k].Why {
			t.Errorf("workload %d: %+v vs %q %q", k, w, workloads[k].Name, workloads[k].Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bj.EndToEnd), len(endToEnd))
	}
	for k, m := range bj.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[k] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v vs %+v", k, m, endToEnd[k])
		}
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ:\n%+v\n%+v", bj.PerLayer, perLayer)
	}
}
