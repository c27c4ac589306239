package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"recsys/internal/nn"
)

// Operator spans are the paper's Figure 7 breakdown measured on real
// forward passes. The instrumented pass (model.ForwardDeadline) reports
// one span per stage to a SpanRecorder; the recorder keeps the spans
// (request traces, standalone profiles) and adds their time to a
// per-kind OpTimes ledger (the engine's Stats.KindUS and
// recsys_op_seconds_total).

// Span is one per-operator execution interval of a forward pass.
type Span struct {
	// Name is the operator instance, e.g. "rmc1/bottom" or "rmc1/emb3".
	Name string `json:"name"`
	// Kind is the operator class (FC, SparseLengthsSum, ...).
	Kind string `json:"kind"`
	// US is the operator's execution time in microseconds.
	US float64 `json:"us"`
}

// SpanRecorder implements model.SpanObserver. Every span is added to
// Ops when it is non-nil and appended to Spans unless OpsOnly is set,
// so the zero value records a standalone profile. Appending into a
// reused Spans buffer keeps a warm recorder allocation-free.
type SpanRecorder struct {
	// Ops, when non-nil, accumulates every span's time by kind.
	Ops *OpTimes
	// OpsOnly feeds Ops without keeping the spans (an untraced pass).
	OpsOnly bool
	// Spans are the kept spans, in execution order.
	Spans []Span
}

// OpSpan implements model.SpanObserver.
func (r *SpanRecorder) OpSpan(name string, kind nn.Kind, d time.Duration) {
	if r.Ops != nil {
		r.Ops.Add(kind, d)
	}
	if !r.OpsOnly {
		r.Spans = append(r.Spans, Span{Name: name, Kind: kind.String(), US: float64(d) / 1e3})
	}
}

// TotalUS returns the summed time of the kept spans.
func (r *SpanRecorder) TotalUS() float64 {
	var sum float64
	for _, s := range r.Spans {
		sum += s.US
	}
	return sum
}

// KindFraction returns the share of the kept spans' time spent in the
// given kinds (0 for an empty recording).
func (r *SpanRecorder) KindFraction(kinds ...nn.Kind) float64 {
	total := r.TotalUS()
	if total == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Spans {
		for _, k := range kinds {
			if s.Kind == k.String() {
				sum += s.US
				break
			}
		}
	}
	return sum / total
}

// String renders the kept spans as a per-stage table.
func (r *SpanRecorder) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %.1fµs\n", r.TotalUS())
	for _, s := range r.Spans {
		fmt.Fprintf(&b, "  %-28s %-16s %.1fµs\n", s.Name, s.Kind, s.US)
	}
	return b.String()
}

// nKinds sizes the per-kind accumulators.
const nKinds = int(nn.KindOther) + 1

// OpTimes accumulates forward-pass time per operator kind in atomic
// nanosecond counters, safe for concurrent adds from executor workers.
type OpTimes struct {
	ns [nKinds]atomic.Int64
}

// Add charges d to kind.
func (o *OpTimes) Add(kind nn.Kind, d time.Duration) { o.ns[kind].Add(int64(d)) }

// NS returns the cumulative nanoseconds charged to kind.
func (o *OpTimes) NS(kind nn.Kind) int64 { return o.ns[kind].Load() }

// KindUS returns the cumulative microseconds of every kind charged so
// far, keyed by kind name; nil when nothing was.
func (o *OpTimes) KindUS() map[string]float64 {
	var us map[string]float64
	for _, k := range nn.Kinds() {
		if ns := o.NS(k); ns > 0 {
			if us == nil {
				us = make(map[string]float64, nKinds)
			}
			us[k.String()] = float64(ns) / 1e3
		}
	}
	return us
}
