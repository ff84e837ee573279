package sched

import (
	"ampsched/internal/monitor"
	"ampsched/internal/telemetry"
)

// Option customizes a scheduler at construction. Every constructor in
// this package accepts trailing options; the zero-option call is the
// uninstrumented scheduler of earlier releases.
type Option func(*options)

type options struct {
	tel        *telemetry.Telemetry
	obsFactory func(window uint64) monitor.Observer
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithTelemetry publishes the scheduler's decision-making into t:
// per-policy counters (windows observed, decision points, votes,
// majority fires, forced swaps, retry backoffs, vetoes) under
// "sched.<policy>.*", and — when t has sinks — one "window" event per
// closed commit window. A nil t is ignored.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(o *options) { o.tel = t }
}

// WithObserverFactory replaces the scheduler's hardware monitors, one
// observer per thread in thread order — the fault-injection seam.
func WithObserverFactory(f func(window uint64) monitor.Observer) Option {
	return func(o *options) { o.obsFactory = f }
}

// polTel holds one policy's resolved telemetry handles. The zero value
// (telemetry disabled) is fully functional: every handle is nil and
// every call a no-op, so policies publish unconditionally.
type polTel struct {
	t    *telemetry.Telemetry
	name string

	windows       *telemetry.Counter
	decisions     *telemetry.Counter
	votesSwap     *telemetry.Counter
	votesStay     *telemetry.Counter
	majorityFires *telemetry.Counter
	forcedSwaps   *telemetry.Counter
	requests      *telemetry.Counter
	holdoffs      *telemetry.Counter
	retries       *telemetry.Counter
	vetoes        *telemetry.Counter
}

// newPolTel resolves the policy's handle set ("sched.<policy>.*").
func newPolTel(t *telemetry.Telemetry, policy string) polTel {
	if t == nil {
		return polTel{}
	}
	p := "sched." + policy + "."
	return polTel{
		t:    t,
		name: policy,

		windows:       t.Counter(p + "windows"),
		decisions:     t.Counter(p + "decisions"),
		votesSwap:     t.Counter(p + "votes_swap"),
		votesStay:     t.Counter(p + "votes_stay"),
		majorityFires: t.Counter(p + "majority_fires"),
		forcedSwaps:   t.Counter(p + "forced_swaps"),
		requests:      t.Counter(p + "swap_requests"),
		holdoffs:      t.Counter(p + "backoff_holdoffs"),
		retries:       t.Counter(p + "retry_backoffs"),
		vetoes:        t.Counter(p + "vetoes"),
	}
}

// vote counts one tentative window decision.
//
//ampvet:hotpath
func (pt *polTel) vote(swap bool) {
	if swap {
		pt.votesSwap.Inc()
	} else {
		pt.votesStay.Inc()
	}
}

// window counts one closed commit window and, when the event stream is
// live, publishes its composition.
//
//ampvet:hotpath
func (pt *polTel) window(cycle uint64, thread int, s monitor.Sample) {
	pt.windows.Inc()
	if pt.t.Eventing() {
		e := telemetry.NewEvent("window")
		e.Cycle = cycle
		e.Thread = thread
		e.Sched = pt.name
		e.IntPct = s.IntPct
		e.FPPct = s.FPPct
		pt.t.Emit(e)
	}
}
