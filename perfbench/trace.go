package main

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"ampsched/internal/telemetry"
)

// Tracing for the traced run. Spans wrap the benchmark's own calls
// into each layer (nothing is traced inside the program) and are kept
// in memory until the run writes them out. A nil *tracer records
// nothing, which is the untraced run.

// span is one timed call. Spans of one job or sweep share Trace;
// Parent is the causing span's ID (0 for a root).
type span struct {
	Trace   string  `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since process start
	EndMS   float64 `json:"end_ms"`
	Attr    string  `json:"attr,omitempty"`
}

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(trace string, parent int, name string, start, end time.Time, attr string) int {
	if t == nil {
		return 0
	}
	ms := func(x time.Time) float64 { return float64(x.Sub(t.origin).Nanoseconds()) / 1e6 }
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartMS: ms(start), EndMS: ms(end), Attr: attr})
	return id
}

// time runs f inside a span and returns its duration.
func (t *tracer) time(trace string, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, parent, name, start, end, "")
	return end.Sub(start)
}

// snapshot is one registry's metrics by name.
type snapshot map[string]telemetry.Metric

func snapOf(ms []telemetry.Metric) snapshot {
	s := make(snapshot, len(ms))
	for _, m := range ms {
		s[m.Name] = m
	}
	return s
}

// metricDelta is one metric's change over the timed phase. Counters
// and gauges carry Value (a counter's difference, a gauge's final
// reading); histograms carry the count and sum differences and the
// final cumulative quantiles, which /metrics only reports to within a
// factor of sqrt(2).
type metricDelta struct {
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Count float64 `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// deltas returns every metric's change from before to after.
func deltas(before, after snapshot) map[string]metricDelta {
	out := make(map[string]metricDelta, len(after))
	for name, a := range after {
		b := before[name]
		d := metricDelta{Kind: a.Kind}
		switch a.Kind {
		case "counter":
			d.Value = a.Value - b.Value
		case "gauge":
			d.Value = a.Value
		case "histogram":
			d.Count = float64(a.Count - b.Count)
			d.Sum = a.Sum - b.Sum
			d.P50, d.P99 = a.P50, a.P99
		}
		out[name] = d
	}
	return out
}

// deltaSet is the timed-phase deltas of one or more registries (one
// per fleet node).
type deltaSet []map[string]metricDelta

// sum adds a counter's (or histogram's count) delta over every
// registry.
func (ds deltaSet) sum(name string) float64 {
	var v float64
	for _, d := range ds {
		m := d[name]
		v += m.Value + m.Count
	}
	return v
}

// sumMatch adds every counter whose name has prefix and suffix.
func (ds deltaSet) sumMatch(prefix, suffix string) float64 {
	var v float64
	for _, d := range ds {
		for name, m := range d {
			if m.Kind == "counter" && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				v += m.Value
			}
		}
	}
	return v
}

// histSum adds a histogram's sum delta over every registry.
func (ds deltaSet) histSum(name string) float64 {
	var v float64
	for _, d := range ds {
		v += d[name].Sum
	}
	return v
}

// quantile is the largest cumulative histogram quantile (q is 0.5 or
// 0.99) among the registries that observed samples in the timed phase.
func (ds deltaSet) quantile(name string, q float64) float64 {
	var v float64
	for _, d := range ds {
		m := d[name]
		if m.Count == 0 {
			continue
		}
		x := m.P50
		if q > 0.5 {
			x = m.P99
		}
		if x > v {
			v = x
		}
	}
	return v
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantileOf returns the nearest-rank q-quantile of xs (0 when empty).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
