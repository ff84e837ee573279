package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

func bench(name string, ns float64, allocs int64) Benchmark {
	return Benchmark{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func countFail(lines []string) int {
	n := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "FAIL") {
			n++
		}
	}
	return n
}

func TestCompareNoRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 105, 0)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 0 {
		t.Fatalf("+5%% within a +10%% gate must pass, got %d failures: %v", res.failures, res.lines)
	}
	// A speedup of any size passes too.
	fresh.Benchmarks[0].NsPerOp = 10
	if res := compareSnapshots(old, fresh, 10, nil); res.failures != 0 {
		t.Fatalf("speedup must pass, got %v", res.lines)
	}
}

func TestCompareNsRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 111, 0)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 1 || countFail(res.lines) != 1 {
		t.Fatalf("+11%% past a +10%% gate must fail once, got %d failures: %v", res.failures, res.lines)
	}
	// A looser gate lets the same delta through.
	if res := compareSnapshots(old, fresh, 20, nil); res.failures != 0 {
		t.Fatalf("+11%% within a +20%% gate must pass, got %v", res.lines)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 1)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 1 {
		t.Fatalf("any allocs/op increase must fail, got %d failures: %v", res.failures, res.lines)
	}
}

func TestCompareBothRegressions(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 2)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 200, 3)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 2 {
		t.Fatalf("ns/op and allocs/op regressions count separately, got %d: %v", res.failures, res.lines)
	}
}

func TestCompareHardAllocsSplit(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepInterval", 100, 2),
		bench("BenchmarkEnginePairSweepDetailed", 100, 2),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepInterval", 150, 3),
		bench("BenchmarkEnginePairSweepDetailed", 150, 3),
	}}
	res := compareSnapshots(old, fresh, 10, regexp.MustCompile("Interval"))
	// Four failures total (ns+allocs on both rows) but only the
	// interval row's allocs increase is hard.
	if res.failures != 4 {
		t.Fatalf("want 4 failures, got %d: %v", res.failures, res.lines)
	}
	if res.hard != 1 {
		t.Fatalf("want 1 hard failure (interval allocs), got %d: %v", res.hard, res.lines)
	}
	var sawHard bool
	for _, l := range res.lines {
		sawHard = sawHard || strings.HasPrefix(l, "HARD BenchmarkEnginePairSweepInterval: allocs/op")
	}
	if !sawHard {
		t.Fatalf("missing HARD line for the interval allocs regression: %v", res.lines)
	}
	// ns/op drift alone on a matching row stays soft.
	fresh.Benchmarks[0].AllocsPerOp = 2
	fresh.Benchmarks[1].AllocsPerOp = 2
	if res := compareSnapshots(old, fresh, 10, regexp.MustCompile("Interval")); res.hard != 0 {
		t.Fatalf("ns/op drift must not hard-fail, got %d hard: %v", res.hard, res.lines)
	}
}

func TestCompareNewAndGone(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkGone", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkNew", 100, 5)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 0 {
		t.Fatalf("added/removed benchmarks must not fail the gate: %v", res.lines)
	}
	var sawNew, sawGone bool
	for _, l := range res.lines {
		sawNew = sawNew || strings.HasPrefix(l, "new  BenchmarkNew")
		sawGone = sawGone || strings.HasPrefix(l, "gone BenchmarkGone")
	}
	if !sawNew || !sawGone {
		t.Fatalf("missing new/gone report lines: %v", res.lines)
	}
}

// TestCompareMatchesProcs: the same benchmark at two GOMAXPROCS
// values is two rows, each gated against its own baseline, and a
// baseline row that predates procs matches its name at any procs.
func TestCompareMatchesProcs(t *testing.T) {
	at := func(b Benchmark, procs int) Benchmark { b.Procs = procs; return b }
	old := &Snapshot{Benchmarks: []Benchmark{
		at(bench("BenchmarkA", 100, 5), 1),
		at(bench("BenchmarkA", 50, 5), 2),
		bench("BenchmarkLegacy", 100, 0),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		at(bench("BenchmarkA", 100, 5), 1),
		at(bench("BenchmarkA", 100, 5), 2),
		at(bench("BenchmarkA", 30, 5), 4),
		at(bench("BenchmarkLegacy", 100, 0), 1),
		at(bench("BenchmarkLegacy", 100, 1), 2),
	}}
	res := compareSnapshots(old, fresh, 10, nil)
	want := []string{
		"ok   BenchmarkA: 100.0 -> 100.0 ns/op (+0.0%)",
		"FAIL BenchmarkA-2: 50.0 -> 100.0 ns/op (+100.0%, gate +10.0%)",
		"new  BenchmarkA-4: 30.0 ns/op (no baseline)",
		"ok   BenchmarkLegacy: 100.0 -> 100.0 ns/op (+0.0%)",
		"FAIL BenchmarkLegacy-2: allocs/op 0 -> 1 (any increase fails)",
	}
	if strings.Join(res.lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(res.lines, "\n"), strings.Join(want, "\n"))
	}
	if res.failures != 2 {
		t.Fatalf("want 2 failures, got %d", res.failures)
	}
}

func TestParseSnapshot(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: ampsched
cpu: Test CPU
BenchmarkCoreSimulation-8   	     100	  12345.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkWithExtra-8        	      50	    200.0 ns/op	      16 B/op	       2 allocs/op	       1.5 pct_vs_hpe
BenchmarkWithExtra          	      50	    300.0 ns/op	      16 B/op	       2 allocs/op	       1.5 pct_vs_hpe
PASS
ok  	ampsched	1.234s
`
	snap, err := parseSnapshot(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.Package != "ampsched" {
		t.Fatalf("header mis-parsed: %+v", snap)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("want 3 benchmarks, got %+v", snap.Benchmarks)
	}
	b := snap.Benchmarks[0]
	if b.Name != "BenchmarkCoreSimulation" || b.Procs != 8 || b.NsPerOp != 12345.6 || b.AllocsPerOp != 0 {
		t.Fatalf("first benchmark mis-parsed: %+v", b)
	}
	// go test prints no suffix at GOMAXPROCS 1.
	if b := snap.Benchmarks[2]; b.Name != "BenchmarkWithExtra" || b.Procs != 1 {
		t.Fatalf("unsuffixed row mis-parsed: %+v", b)
	}
	if got := snap.Benchmarks[1].Extra["pct_vs_hpe"]; got != 1.5 {
		t.Fatalf("extra metric mis-parsed: %+v", snap.Benchmarks[1])
	}
}

// TestParseSnapshotRecordsEveryPackage covers a multi-package run:
// go test prints one header block per package, and the snapshot must
// name all of them, not just the last.
func TestParseSnapshotRecordsEveryPackage(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: ampsched/internal/server
cpu: Test CPU
BenchmarkServerCacheKey-2   	    1000	  1200.0 ns/op	     512 B/op	       5 allocs/op
PASS
ok  	ampsched/internal/server	1.0s
goos: linux
goarch: amd64
pkg: ampsched/internal/jobqueue
cpu: Test CPU
BenchmarkQueueSubmitComplete-2   	    1000	  900.0 ns/op	     256 B/op	       3 allocs/op
PASS
ok  	ampsched/internal/jobqueue	1.0s
`
	snap, err := parseSnapshot(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := "ampsched/internal/server ampsched/internal/jobqueue"; snap.Package != want {
		t.Fatalf("pkg = %q, want %q", snap.Package, want)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %+v", snap.Benchmarks)
	}
}
