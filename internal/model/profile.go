package model

import (
	"time"

	"recsys/internal/obs"
	"recsys/internal/tensor"
)

// Wall-clock profiling of real execution, as opposed to the simulated
// timings of internal/perf: the repository's analogue of the paper's
// Caffe2 operator profiling, which lets the simulated Figure 7
// breakdowns be checked against real execution of scaled models.

var _ SpanObserver = (*obs.SpanRecorder)(nil)

// ProfiledForward runs one instrumented forward pass and returns the
// output with its per-stage spans. The spans come from the serving hot
// path itself (ForwardDeadline), so the breakdown measures real
// serving work and the output is bit-identical to ForwardEx.
func (m *Model) ProfiledForward(req Request) (*tensor.Tensor, obs.SpanRecorder) {
	var rec obs.SpanRecorder
	out := m.ForwardDeadline(req, nil, 1, &rec, time.Time{})
	return out, rec
}

// ProfileAverage runs n instrumented passes and returns their spans
// with per-stage times averaged. With n > 1 one extra warm-up pass
// runs first and is discarded.
func (m *Model) ProfileAverage(req Request, n int) obs.SpanRecorder {
	if n <= 0 {
		panic("model: profile pass count must be positive")
	}
	_, acc := m.ProfiledForward(req)
	if n == 1 {
		return acc
	}
	_, acc = m.ProfiledForward(req)
	for i := 1; i < n; i++ {
		_, p := m.ProfiledForward(req)
		for j := range acc.Spans {
			acc.Spans[j].US += p.Spans[j].US
		}
	}
	for j := range acc.Spans {
		acc.Spans[j].US /= float64(n)
	}
	return acc
}
