// Package profile measures where wall-clock time goes in *real* model
// execution (as opposed to the simulated timings of internal/perf):
// per-operator-group durations of an actual forward pass on the host
// CPU. It is the repository's analogue of the paper's Caffe2 operator
// profiling, and lets the simulated breakdowns of Figure 7 be
// sanity-checked against real execution of scaled models.
package profile

import (
	"fmt"
	"time"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/tensor"
)

// Profile implements model.SpanObserver, so it can be handed directly
// to the instrumented forward pass.
var _ model.SpanObserver = (*Profile)(nil)

// Span is one timed stage of a forward pass.
type Span struct {
	Name     string
	Kind     nn.Kind
	Duration time.Duration
}

// Profile is the timing of one (or several averaged) forward passes.
type Profile struct {
	Spans []Span
	Total time.Duration
}

// KindFraction returns the share of total time in the given kinds.
func (p Profile) KindFraction(kinds ...nn.Kind) float64 {
	if p.Total == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range p.Spans {
		for _, k := range kinds {
			if s.Kind == k {
				sum += s.Duration
				break
			}
		}
	}
	return float64(sum) / float64(p.Total)
}

// String renders the profile as a per-stage table.
func (p Profile) String() string {
	out := fmt.Sprintf("total %v\n", p.Total)
	for _, s := range p.Spans {
		out += fmt.Sprintf("  %-28s %-16s %v\n", s.Name, s.Kind, s.Duration)
	}
	return out
}

// OpSpan records one operator span; it is the model.SpanObserver hook
// the instrumented forward pass calls per stage.
func (p *Profile) OpSpan(name string, kind nn.Kind, d time.Duration) {
	p.Spans = append(p.Spans, Span{Name: name, Kind: kind, Duration: d})
	p.Total += d
}

// Forward runs one instrumented forward pass, returning the output and
// the per-stage timing. The spans come from the serving hot path itself
// (Model.ForwardDeadline) — the same code the engine executes — so the
// breakdown measures real serving work, and the computation is
// bit-identical to Model.Forward.
func Forward(m *model.Model, req model.Request) (*tensor.Tensor, Profile) {
	var p Profile
	out := m.ForwardDeadline(req, nil, 1, &p, time.Time{})
	return out, p
}

// Average runs n instrumented passes and returns the profile with
// per-stage durations averaged (the first pass is treated as warmup
// and discarded when n > 1).
func Average(m *model.Model, req model.Request, n int) Profile {
	if n <= 0 {
		panic("profile: pass count must be positive")
	}
	_, first := Forward(m, req)
	if n == 1 {
		return first
	}
	var acc Profile
	for i := 0; i < n; i++ {
		_, p := Forward(m, req)
		if acc.Spans == nil {
			acc = p
			continue
		}
		for j := range acc.Spans {
			acc.Spans[j].Duration += p.Spans[j].Duration
		}
		acc.Total += p.Total
	}
	for j := range acc.Spans {
		acc.Spans[j].Duration /= time.Duration(n)
	}
	acc.Total /= time.Duration(n)
	return acc
}
