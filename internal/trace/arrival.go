package trace

import (
	"fmt"
	"math"
	"strings"
	"time"

	"recsys/internal/stats"
)

// Time-varying arrival processes. The homogeneous Poisson generator
// (loadgen.go) models steady offered load; the SLA experiments need
// the opposite — load that *shifts* — because an adaptive scheduler
// only proves itself when the operating point it tuned for stops being
// the operating point. The generators here draw from an inhomogeneous
// Poisson process via the piecewise-exponential approximation: each
// inter-arrival gap is Exp(1)/rate(now), i.e. the rate is held
// constant across one gap. For rates that change slowly relative to a
// gap (every profile here) this is indistinguishable from exact
// thinning and needs no rejection loop.

// RateFunc returns the instantaneous offered load, in queries per
// second, at absolute time t (microseconds since the run started).
type RateFunc func(tUS float64) float64

// FlashCrowd steps the rate from qps to mult×qps at time `at` and
// holds it there — the "traffic spike lands and stays" profile the
// QPS-at-SLA experiment uses.
func FlashCrowd(qps, mult float64, at time.Duration) RateFunc {
	atUS := float64(at.Microseconds())
	return func(tUS float64) float64 {
		if tUS >= atUS {
			return qps * mult
		}
		return qps
	}
}

// BurstyRate is a square wave with the given period: the first half of
// every period offers qps, the second half mult×qps.
func BurstyRate(qps, mult float64, period time.Duration) RateFunc {
	pUS := float64(period.Microseconds())
	return func(tUS float64) float64 {
		if math.Mod(tUS, pUS) >= pUS/2 {
			return qps * mult
		}
		return qps
	}
}

// DiurnalRate is a raised sinusoid with the given period, oscillating
// between qps (trough) and mult×qps (peak) — the compressed analogue
// of the paper's observation that production recommendation load
// swings diurnally.
func DiurnalRate(qps, mult float64, period time.Duration) RateFunc {
	pUS := float64(period.Microseconds())
	amp := qps * (mult - 1) / 2
	mid := qps + amp
	return func(tUS float64) float64 {
		return mid - amp*math.Cos(2*math.Pi*tUS/pUS)
	}
}

// VariableLoadGenerator produces arrivals from an inhomogeneous
// Poisson process with the configured rate function.
type VariableLoadGenerator struct {
	// Rate is the instantaneous arrival rate.
	Rate RateFunc
	// Batch is the per-request batch size.
	Batch int

	rng *stats.RNG
	now float64
}

// NewVariableLoadGenerator returns a generator over rate with the
// given per-request batch size.
func NewVariableLoadGenerator(rate RateFunc, batch int, rng *stats.RNG) *VariableLoadGenerator {
	if rate == nil {
		panic("trace: nil rate function")
	}
	if batch <= 0 {
		panic("trace: batch must be positive")
	}
	return &VariableLoadGenerator{Rate: rate, Batch: batch, rng: rng}
}

// Next returns the next arrival. The gap is exponential with mean
// 1e6/rate(now) microseconds; a rate at or below zero is clamped to
// one query per second rather than stalling the generator forever.
func (g *VariableLoadGenerator) Next() Arrival {
	r := g.Rate(g.now)
	if r <= 0 {
		r = 1
	}
	g.now += g.rng.ExpFloat64() * 1e6 / r
	return Arrival{TimeUS: g.now, Batch: g.Batch}
}

// Take returns the next n arrivals.
func (g *VariableLoadGenerator) Take(n int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// ArrivalSource is any arrival generator — the homogeneous
// LoadGenerator or a VariableLoadGenerator over a rate profile.
type ArrivalSource interface {
	Next() Arrival
	Take(n int) []Arrival
}

// NewArrivalSource builds the named arrival process:
//
//	"poisson"  steady qps (mult and period unused)
//	"flash"    qps stepping to mult×qps at time period (and holding)
//	"bursty"   square wave with the given period between qps and mult×qps
//	"diurnal"  sinusoid with the given period between qps and mult×qps
//
// It is the single point cmd/loadgen's -arrival flag maps through.
func NewArrivalSource(kind string, qps, mult float64, period time.Duration, batch int, rng *stats.RNG) (ArrivalSource, error) {
	if qps <= 0 {
		return nil, fmt.Errorf("trace: arrival qps must be positive, got %g", qps)
	}
	if kind != "poisson" {
		if mult < 1 {
			return nil, fmt.Errorf("trace: arrival peak multiplier must be >= 1, got %g", mult)
		}
		if period <= 0 {
			return nil, fmt.Errorf("trace: arrival period must be positive, got %v", period)
		}
	}
	switch strings.ToLower(kind) {
	case "poisson":
		return NewLoadGenerator(qps, batch, rng), nil
	case "flash":
		return NewVariableLoadGenerator(FlashCrowd(qps, mult, period), batch, rng), nil
	case "bursty":
		return NewVariableLoadGenerator(BurstyRate(qps, mult, period), batch, rng), nil
	case "diurnal":
		return NewVariableLoadGenerator(DiurnalRate(qps, mult, period), batch, rng), nil
	default:
		return nil, fmt.Errorf("trace: unknown arrival process %q (want poisson, flash, bursty, or diurnal)", kind)
	}
}
