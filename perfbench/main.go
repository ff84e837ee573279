// Command perfbench is the repository benchmark. One run executes one
// workload against the public entry points of internal/experiments,
// internal/server (its Handler on a loopback listener) and
// internal/cluster, checks the simulated results, prints every metric
// by name and unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host time,
// measured untraced); with --trace 1 they are the per-layer ones, read
// from spans around the benchmark's calls into each layer and from the
// counters the program exports. The traced run writes its spans and
// telemetry deltas to .bench_build/perfbench/trace-<workload>-seed<seed>.json and
// prints its overhead against the last untraced run of the workload.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this package first:
//
//	bash perfbench/run.sh --workload fleet-skew --seed 1 --seconds 25 --trace 0
//
// Workloads, metrics and the layer each metric should move are listed
// in perfbench/README.md and ../BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	Start   time.Time // process start: set-up time counts from here
	Seed    uint64
	Seconds time.Duration
	Workers int       // set-up parallelism and fleet-skew's clients (nproc)
	Log     io.Writer // diagnostics
}

// runResult is what a workload measured.
type runResult struct {
	Setup     time.Duration // process start to the first timed operation
	Wall      time.Duration // timed phase
	Done      int           // jobs (pairs for the sweep) that completed intact
	Attempted int
	Failed    int       // failed, timed-out or refused jobs and degraded pairs
	Mismatch  int       // sampled results that differ from their recomputation
	LatencyMS []float64 // per job (per pair for the sweep), in index order
	Committed uint64    // instructions of freshly simulated pairs (cache hits excluded)
	// RSS is the resident memory the process retains right after the
	// timed phase (see retainedRSSMiB).
	RSS     float64
	SHA     string
	SHAOver int // units the hash covers
	// Traced run only.
	Layers map[string]float64
	Deltas map[string]map[string]metricDelta
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	Why  string
	Run  func(ctx context.Context, cfg runConfig, tr *tracer) (*runResult, error)
}

var workloads = []workloadDef{
	{"paper-sweep", "the paper's Fig. 7 sweep (sampled fidelity, 4M-cycle context switch) through Runner.SweepContext on one worker; only the simulation engines work", runPaperSweep},
	{"fleet-skew", "two cluster nodes sprayed round-robin, one job in three pinned to a hot spec: ring routing, forwarding, singleflight, stealing", runFleetSkew},
}

// metricDef is one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_ms_p50", "ms", "lower"},
	{"job_ms_p90", "ms", "lower"},
	{"rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"experiments.profile_s", "s", "lower"},
	{"experiments.matrix_s", "s", "lower"},
	{"experiments.surface_s", "s", "lower"},
	{"experiments.sweep_s", "s", "lower"},
	{"experiments.pair_s_p50", "s", "lower"},
	{"experiments.pair_s_max", "s", "lower"},
	{"experiments.straggler_s", "s", "lower"},
	{"experiments.run_wall_us_p50", "us", "lower"},
	{"experiments.host_ns_per_instr", "ns", "lower"},
	{"experiments.pairs_failed", "count", "lower"},
	{"interval.calibrations", "count", "lower"},
	{"interval.cal_hit_ratio", "ratio", "higher"},
	{"amp.runs", "count", "higher"},
	{"amp.swaps", "count", "lower"},
	{"amp.wedges", "count", "lower"},
	{"sched.decisions", "count", "lower"},
	{"server.submit_ms_p50", "ms", "lower"},
	{"server.submit_ms_p99", "ms", "lower"},
	{"server.job_latency_us_p50", "us", "lower"},
	{"server.client_overhead_ms_mean", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.cache_joined", "count", "higher"},
	{"server.batch_size_mean", "pairs", "higher"},
	{"server.cache_entries", "count", "lower"},
	{"server.cache_bytes", "bytes", "lower"},
	{"jobqueue.wait_us_p50", "us", "lower"},
	{"jobqueue.wait_us_p99", "us", "lower"},
	{"jobqueue.run_us_p50", "us", "lower"},
	{"jobqueue.retries", "count", "lower"},
	{"jobqueue.panics", "count", "lower"},
	{"cluster.forward_ms_p50", "ms", "lower"},
	{"cluster.forwards", "count", "lower"},
	{"cluster.forward_fallbacks", "count", "lower"},
	{"cluster.remote_hit_ratio", "ratio", "higher"},
	{"cluster.replicas", "count", "lower"},
	{"cluster.steals", "count", "higher"},
	{"cluster.steals_granted", "count", "higher"},
	{"cluster.steal_returns", "count", "higher"},
	{"cluster.redispatches", "count", "lower"},
	{"cluster.peer_suspects", "count", "lower"},
	{"cluster.sims_per_key", "ratio", "lower"},
	{"cluster.node_sim_share_max", "ratio", "lower"},
}

// outDir holds trace files and the last untraced result of each
// workload; it is inside the checkout's build directory.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-sweep | fleet-skew")
	seed := fs.Uint64("seed", 1, "workload seed: generates every input")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for k := range workloads {
		if workloads[k].Name == *name {
			wl = &workloads[k]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{
		Start:   start,
		Seed:    *seed,
		Seconds: time.Duration(*seconds) * time.Second,
		Workers: runtime.NumCPU(),
		Log:     stderr,
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer(start)
	}
	info := contextInfo()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.Name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "context %s\n", info)

	res, err := wl.Run(ctx, cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	e2e := endToEndValues(res)
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "metric %-18s %14.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	// Reported but not gated: see README.md.
	fmt.Fprintf(stdout, "report %-18s %14.4f ms (%d samples, %d beyond)\n", "job_ms_p99",
		quantileOf(res.LatencyMS, 0.99), len(res.LatencyMS), len(res.LatencyMS)/100)
	fmt.Fprintf(stdout, "report %-18s %14.4f MiB\n", "peak_rss_mb", peakRSSMiB())
	fmt.Fprintf(stdout, "report %-18s %14.4f ratio (%d of %d attempted; %d result mismatches)\n",
		"failed_frac", res.failedFrac(), res.failed(), res.Attempted, res.Mismatch)
	fmt.Fprintf(stdout, "results_sha256 %s over %d %s\n", res.SHA, res.SHAOver, unitNoun(wl.Name))

	metrics := map[string]metricOut{}
	if tr == nil {
		for _, m := range endToEnd {
			metrics[m.Name] = metricOut{e2e[m.Name], m.Unit}
		}
		if err := saveJSON(filepath.Join(outDir, "last-"+wl.Name+".json"), lastRun{Seconds: *seconds, Metrics: e2e}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
	} else {
		for _, m := range perLayer {
			v := res.Layers[m.Name]
			metrics[m.Name] = metricOut{v, m.Unit}
			fmt.Fprintf(stdout, "layer %-32s %14.4f %s\n", m.Name, v, m.Unit)
		}
		overhead := tracingOverhead(filepath.Join(outDir, "last-"+wl.Name+".json"), *seconds, e2e, stdout)
		file := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.Name, *seed))
		err := saveJSON(file, traceFile{
			Workload: wl.Name, Seed: *seed, Seconds: *seconds, Context: info,
			EndToEnd: e2e, Overhead: overhead, Layers: res.Layers, Deltas: res.Deltas, Spans: tr.spans,
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "trace %s (%d spans)\n", file, len(tr.spans))
		}
	}
	line, err := json.Marshal(res.summary(metrics))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed() > 0 {
		return 1
	}
	return 0
}

// failed counts the run's failures: failed, timed-out or refused jobs,
// degraded pairs and result mismatches.
func (r *runResult) failed() int { return r.Failed + r.Mismatch }

func (r *runResult) failedFrac() float64 {
	return float64(r.failed()) / float64(max(r.Attempted, 1))
}

// summary is the final output line for the given metrics; a run with
// any failure is not correct.
func (r *runResult) summary(metrics map[string]metricOut) summary {
	return summary{Correct: r.failed() == 0, Attempted: max(r.Attempted, 1), Failed: r.failed(), Metrics: metrics}
}

// unitNoun names what one latency sample and one hashed unit are.
func unitNoun(workload string) string {
	if workload == "paper-sweep" {
		return "pairs"
	}
	return "jobs"
}

// endToEndValues derives the end-to-end metrics from a run. Rates are
// totals over the timed phase's wall time.
func endToEndValues(res *runResult) map[string]float64 {
	wall := res.Wall.Seconds()
	return map[string]float64{
		"setup_s":          res.Setup.Seconds(),
		"sim_minstr_per_s": ratio(float64(res.Committed)/1e6, wall),
		"jobs_per_s":       ratio(float64(res.Done), wall),
		"job_ms_p50":       quantileOf(res.LatencyMS, 0.5),
		"job_ms_p90":       quantileOf(res.LatencyMS, 0.9),
		"rss_mb":           res.RSS,
	}
}

// retainedRSSMiB is the resident memory the process keeps once a
// forced collection has returned free memory to the OS: what the
// program retains (job table, caches, runners, profiles), without the
// garbage-collector headroom that makes the high-water mark swing with
// collection timing. Workloads call it after the timed phase, before
// tearing anything down.
func retainedRSSMiB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// lastRun is the end-to-end result an untraced run leaves for the
// next traced run of the workload to compare against.
type lastRun struct {
	Seconds int                `json:"seconds"`
	Metrics map[string]float64 `json:"metrics"`
}

type traceFile struct {
	Workload string                            `json:"workload"`
	Seed     uint64                            `json:"seed"`
	Seconds  int                               `json:"seconds"`
	Context  string                            `json:"context"`
	EndToEnd map[string]float64                `json:"end_to_end"`
	Overhead map[string]float64                `json:"tracing_overhead,omitempty"`
	Layers   map[string]float64                `json:"layers"`
	Deltas   map[string]map[string]metricDelta `json:"telemetry_deltas,omitempty"`
	Spans    []span                            `json:"spans"`
}

// tracingOverhead prints and returns traced minus untraced for every
// end-to-end metric, against the last untraced run of the same length.
func tracingOverhead(path string, seconds int, traced map[string]float64, w io.Writer) map[string]float64 {
	var last lastRun
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &last)
	}
	if err != nil || last.Seconds != seconds {
		fmt.Fprintf(w, "overhead unknown: no untraced %d-second run of this workload recorded in %s\n", seconds, filepath.Dir(path))
		return nil
	}
	out := map[string]float64{}
	for _, m := range endToEnd {
		d := traced[m.Name] - last.Metrics[m.Name]
		out[m.Name] = d
		fmt.Fprintf(w, "overhead %-18s traced %12.4f untraced %12.4f diff %+12.4f %s\n",
			m.Name, traced[m.Name], last.Metrics[m.Name], d, m.Unit)
	}
	return out
}

func saveJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// contextInfo records the host the numbers come from. The services run
// without a job journal: the benchmark writes only inside its
// checkout, where fsync cost on a shared disk would swamp the numbers.
func contextInfo() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s journal=none",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
