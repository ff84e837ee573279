package interval

import (
	"fmt"
	"sync"
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// resetCalCacheForTest empties the process-global calibration cache
// and restores the default budget; the returned function undoes the
// telemetry hookup.
func resetCalCacheForTest(t *testing.T, tel *telemetry.Telemetry) {
	t.Helper()
	calMu.Lock()
	calCache = map[calKey]*calEntry{}
	calFlight = map[calKey]*calCall{}
	calBytes = 0
	calBudget = DefaultCalCacheBytes
	calMu.Unlock()
	SetTelemetry(tel)
	t.Cleanup(func() {
		SetTelemetry(nil)
		calMu.Lock()
		calCache = map[calKey]*calEntry{}
		calBytes = 0
		calBudget = DefaultCalCacheBytes
		calMu.Unlock()
	})
}

// TestCalCacheBoundedLRU pins the cache's contract: hits and misses
// are counted, the byte budget evicts approximately-LRU, and a touched
// entry survives eviction of a staler one.
func TestCalCacheBoundedLRU(t *testing.T) {
	tel := telemetry.New()
	resetCalCacheForTest(t, tel)

	base := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")
	cfgN := func(i int) *cpu.Config {
		c := *base
		c.Name = fmt.Sprintf("%s-calcache-%d", base.Name, i)
		return &c
	}

	// Two entries fit the budget; a third must evict the stalest.
	one := calibrationFor(cfgN(0), base.Units, bench)
	SetCalibrationCacheBudget(2*calSize(one) + calSize(one)/2)
	calibrationFor(cfgN(1), base.Units, bench)
	if got := tel.Counter("interval.calibrations").Value(); got != 2 {
		t.Fatalf("calibrations = %d, want 2", got)
	}
	if got := tel.Counter("interval.cal_cache_hits").Value(); got != 0 {
		t.Fatalf("premature hits: %d", got)
	}

	// Touch entry 0 so entry 1 is the LRU victim.
	calibrationFor(cfgN(0), base.Units, bench)
	if got := tel.Counter("interval.cal_cache_hits").Value(); got != 1 {
		t.Fatalf("cal_cache_hits = %d, want 1", got)
	}

	calibrationFor(cfgN(2), base.Units, bench) // evicts entry 1
	calMu.RLock()
	n, bytes, budget := len(calCache), calBytes, calBudget
	_, has0 := calCache[calKey{cfg: *cfgN(0), units: base.Units, bench: bench.Name}]
	_, has1 := calCache[calKey{cfg: *cfgN(1), units: base.Units, bench: bench.Name}]
	calMu.RUnlock()
	if bytes > budget {
		t.Fatalf("cache over budget: %d > %d", bytes, budget)
	}
	if n != 2 || !has0 || has1 {
		t.Fatalf("eviction picked the wrong victim: n=%d has0=%v has1=%v", n, has0, has1)
	}

	// The evicted key recalibrates (a miss, not a hit).
	calibrationFor(cfgN(1), base.Units, bench)
	if got := tel.Counter("interval.calibrations").Value(); got != 4 {
		t.Fatalf("calibrations = %d, want 4", got)
	}

	// A budget smaller than any entry still keeps the newest.
	SetCalibrationCacheBudget(1)
	calMu.RLock()
	n = len(calCache)
	calMu.RUnlock()
	if n != 1 {
		t.Fatalf("tiny budget kept %d entries, want 1", n)
	}
}

// TestCalibrationSingleflight pins the per-key singleflight: goroutines
// that miss one key at the same time share a single detailed run, and
// every one of them gets that run's result.
func TestCalibrationSingleflight(t *testing.T) {
	tel := telemetry.New()
	resetCalCacheForTest(t, tel)

	cfg := cpu.FPCoreConfig()
	bench := workload.MustByName("mcf")
	const n = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		got   [n]*Calibration
	)
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = calibrationFor(cfg, cfg.Units, bench)
		}()
	}
	start.Done()
	done.Wait()

	if c := tel.Counter("interval.calibrations").Value(); c != 1 {
		t.Fatalf("interval.calibrations = %d, want 1", c)
	}
	if h := tel.Counter("interval.cal_cache_hits").Value(); h != n-1 {
		t.Fatalf("interval.cal_cache_hits = %d, want %d", h, n-1)
	}
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("caller %d got a different calibration", i)
		}
	}
	calMu.RLock()
	inFlight := len(calFlight)
	calMu.RUnlock()
	if inFlight != 0 {
		t.Fatalf("%d calibrations still marked in flight", inFlight)
	}
}

// BenchmarkCalibrate measures one uncached calibration — the detailed
// run plus the model fit — on mcf, the memory-bound benchmark whose
// calibration takes longest. One untimed call first makes the
// package's one-time set-up, so allocs/op reads the same at any b.N.
func BenchmarkCalibrate(b *testing.B) {
	cfg := cpu.IntCoreConfig()
	bench := workload.MustByName("mcf")
	Calibrate(cfg, cfg.Units, bench)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Calibrate(cfg, cfg.Units, bench)
	}
}

// TestCalibrationSingleflightPanic: a calibration that panics must not
// strand the callers waiting on it. Each caller panics in turn and the
// key is left neither cached nor in flight.
func TestCalibrationSingleflightPanic(t *testing.T) {
	resetCalCacheForTest(t, nil)

	cfg := cpu.IntCoreConfig()
	units := cfg.Units
	units[cpu.UIntALU].Count = 0 // Reconfigure rejects it, so Calibrate panics
	bench := workload.MustByName("gcc")
	var wg sync.WaitGroup
	panics := make(chan any, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics <- recover() }()
			calibrationFor(cfg, units, bench)
		}()
	}
	wg.Wait()
	close(panics)
	for p := range panics {
		if p == nil {
			t.Fatal("a caller returned instead of panicking")
		}
	}
	calMu.RLock()
	defer calMu.RUnlock()
	if len(calFlight) != 0 || len(calCache) != 0 {
		t.Fatalf("after panics: %d in flight, %d cached", len(calFlight), len(calCache))
	}
}
