package amp

import (
	"context"
	"errors"
	"testing"

	"ampsched/internal/interval"
	"ampsched/internal/telemetry"
)

// recordObserver keeps every event it sees.
type recordObserver struct {
	events []Event
}

func (r *recordObserver) Event(e Event) { r.events = append(r.events, e) }

func (r *recordObserver) count(k EventKind) int {
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestWithObserverSeesSwaps(t *testing.T) {
	rec := &recordObserver{}
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 21),
		&swapEvery{period: 5000}, Config{SwapOverheadCycles: 100},
		WithObserver(rec))
	res := sys.MustRun(60_000)

	if rec.count(EventRunStart) != 1 || rec.count(EventRunEnd) != 1 {
		t.Errorf("run_start/run_end = %d/%d, want 1/1",
			rec.count(EventRunStart), rec.count(EventRunEnd))
	}
	if got := rec.count(EventSwap); uint64(got) != res.Swaps {
		t.Errorf("observer saw %d swaps, result says %d", got, res.Swaps)
	}
	if res.Swaps == 0 {
		t.Fatal("expected at least one swap")
	}
	// Events are ordered, first is run_start, last is run_end, and
	// every swap event carries the post-swap binding and the overhead.
	if rec.events[0].Kind != EventRunStart || rec.events[len(rec.events)-1].Kind != EventRunEnd {
		t.Error("events not bracketed by run_start/run_end")
	}
	want := [2]int{0, 1}
	for _, e := range rec.events {
		if e.Kind != EventSwap {
			continue
		}
		want[0], want[1] = want[1], want[0]
		if e.ThreadOnCore != want {
			t.Fatalf("swap event binding = %v, want %v", e.ThreadOnCore, want)
		}
		if e.Overhead != 100 || e.Delayed {
			t.Fatalf("swap event overhead/delayed = %d/%v", e.Overhead, e.Delayed)
		}
	}
}

// failInjector drops every swap.
type failInjector struct{}

func (failInjector) SwapOutcome(uint64) SwapOutcome { return SwapOutcome{Fail: true} }

func TestWithFaultPlanOption(t *testing.T) {
	rec := &recordObserver{}
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 22),
		&swapEvery{period: 5000}, Config{},
		WithFaultPlan(failInjector{}), WithObserver(rec))
	res := sys.MustRun(60_000)
	if res.Swaps != 0 {
		t.Errorf("swaps = %d, want 0 (injector drops everything)", res.Swaps)
	}
	if res.FailedSwaps == 0 {
		t.Error("no failed swaps recorded")
	}
	if got := rec.count(EventSwapFailed); uint64(got) != res.FailedSwaps {
		t.Errorf("observer saw %d swap_failed, result says %d", got, res.FailedSwaps)
	}
}

// TestResetClearsFaultPlan pins the fault plan as per-run state: a
// pooled system reset for its next run drops the plan WithFaultPlan
// installed, and the reset run equals a fresh plan-free run.
func TestResetClearsFaultPlan(t *testing.T) {
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 23),
		&swapEvery{period: 5000}, Config{},
		WithEngine(interval.Factory()), WithFaultPlan(failInjector{}))
	if res := sys.MustRun(60_000); res.FailedSwaps == 0 {
		t.Fatal("fault plan dropped no swaps before the reset")
	}
	sys.Detach()
	if err := sys.Reset(newPair(t, "gcc", "equake", 24), &swapEvery{period: 5000}, Config{}); err != nil {
		t.Fatal(err)
	}
	got := sys.MustRun(60_000)
	want := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 24),
		&swapEvery{period: 5000}, Config{}, WithEngine(interval.Factory())).MustRun(60_000)
	if got.FailedSwaps != 0 || got.Swaps == 0 {
		t.Fatalf("reset run swaps/failed = %d/%d: fault plan survived Reset", got.Swaps, got.FailedSwaps)
	}
	if got != want {
		t.Fatalf("reset run diverges from a fresh plan-free run\n got %+v\nwant %+v", got, want)
	}
}

func TestWithTelemetryMetrics(t *testing.T) {
	tel := telemetry.New()
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 24),
		&swapEvery{period: 5000}, Config{SwapOverheadCycles: 100},
		WithTelemetry(tel))
	res := sys.MustRun(60_000)

	reg := tel.Registry()
	if got := reg.Counter("amp.swaps").Value(); got != res.Swaps {
		t.Errorf("amp.swaps = %d, want %d", got, res.Swaps)
	}
	if got := reg.Counter("amp.runs").Value(); got != 1 {
		t.Errorf("amp.runs = %d, want 1", got)
	}
	if h := reg.Histogram("amp.swap_overhead_cycles"); h.Count() != res.Swaps {
		t.Errorf("overhead histogram count = %d, want %d", h.Count(), res.Swaps)
	}
	if got := reg.Gauge("amp.cycles").Value(); got != float64(res.Cycles) {
		t.Errorf("amp.cycles gauge = %g, want %d", got, res.Cycles)
	}
	if reg.Gauge("amp.thread0.committed").Value() <= 0 {
		t.Error("thread0 committed gauge not flushed")
	}
	if reg.Gauge("cpu.core0.active_cycles").Value() <= 0 {
		t.Error("core0 activity gauge not flushed")
	}
}

func TestWithTelemetryEventStream(t *testing.T) {
	var events []telemetry.Event
	sink := sinkFunc(func(e telemetry.Event) { events = append(events, e) })
	tel := telemetry.New(sink)
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 25),
		&swapEvery{period: 5000}, Config{SwapOverheadCycles: 100},
		WithTelemetry(tel))
	res := sys.MustRun(60_000)

	var swaps int
	for _, e := range events {
		if e.Kind == "swap" {
			swaps++
		}
	}
	if uint64(swaps) != res.Swaps {
		t.Errorf("sink saw %d swap events, want %d", swaps, res.Swaps)
	}
}

// sinkFunc adapts a function to telemetry.Sink.
type sinkFunc func(telemetry.Event)

func (f sinkFunc) Emit(e telemetry.Event) { f(e) }
func (f sinkFunc) Close() error           { return nil }

func TestMultiObserverComposition(t *testing.T) {
	a, b := &recordObserver{}, &recordObserver{}
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 26),
		&swapEvery{period: 5000}, Config{},
		WithObserver(a), WithObserver(b))
	sys.MustRun(30_000)
	if len(a.events) == 0 || len(a.events) != len(b.events) {
		t.Errorf("observer fan-out mismatch: %d vs %d events", len(a.events), len(b.events))
	}
	if MultiObserver() != nil {
		t.Error("MultiObserver() should collapse to nil")
	}
	if MultiObserver(nil, a) != Observer(a) {
		t.Error("MultiObserver(nil, a) should unwrap to a")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run must stop at the first check
	rec := &recordObserver{}
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 27), nil, Config{},
		WithObserver(rec))
	res, err := sys.RunContext(ctx, 1_000_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrWedged) {
		t.Error("cancellation must not look like a wedge")
	}
	// The partial result is still populated and bounded by the check
	// granularity.
	if res.Cycles == 0 || res.Cycles > 2*(ctxCheckMask+1) {
		t.Errorf("canceled run stopped after %d cycles", res.Cycles)
	}
	if rec.count(EventCanceled) != 1 || rec.count(EventRunEnd) != 1 {
		t.Errorf("canceled/run_end events = %d/%d, want 1/1",
			rec.count(EventCanceled), rec.count(EventRunEnd))
	}
}

func TestRunContextUncancelableMatchesRun(t *testing.T) {
	mk := func() *System {
		return MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 28),
			&swapEvery{period: 5000}, Config{})
	}
	r1 := mk().MustRun(50_000)
	r2, err := mk().RunContext(context.Background(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Swaps != r2.Swaps {
		t.Errorf("RunContext(Background) diverged from Run: %+v vs %+v", r1, r2)
	}
}
