package model

import (
	"testing"

	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func buildProfiled(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := Build(cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForwardMatchesModel(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(100), // dot interaction
		RMC2Small().Scaled(500), // cat interaction
		MLPerfNCF().Scaled(10),  // no dense path
	} {
		m := buildProfiled(t, cfg)
		req := NewRandomRequest(m.Config, 4, stats.NewRNG(7))
		want := m.Forward(req)
		got, p := m.ProfiledForward(req)
		// Profiled forward runs the packed hot path; Forward is the
		// reference kernel — exact on the Go tier, epsilon on AVX2.
		if !tensor.GemmClose(got, want, 512) {
			t.Errorf("%s: profiled forward changed the output", cfg.Name)
		}
		if p.TotalUS() <= 0 || len(p.Spans) == 0 {
			t.Errorf("%s: empty profile", cfg.Name)
		}
	}
}

func TestKindFractionsSumToOne(t *testing.T) {
	m := buildProfiled(t, RMC1Small().Scaled(100))
	req := NewRandomRequest(m.Config, 8, stats.NewRNG(1))
	_, p := m.ProfiledForward(req)
	all := p.KindFraction(nn.Kinds()...)
	if all < 0.999 || all > 1.001 {
		t.Errorf("kind fractions sum to %v", all)
	}
	var zero obs.SpanRecorder
	if zero.KindFraction(nn.KindFC) != 0 {
		t.Error("empty profile fraction should be 0")
	}
	if len(p.String()) == 0 {
		t.Error("empty String()")
	}
}

// TestRealRMC3IsFCDominated: the simulated Figure 7 claim — RMC3's time
// is overwhelmingly FC — must also hold in REAL execution on the host
// CPU, since it follows from arithmetic volume, not from machine
// details.
func TestRealRMC3IsFCDominated(t *testing.T) {
	m := buildProfiled(t, RMC3Small().Scaled(40))
	req := NewRandomRequest(m.Config, 4, stats.NewRNG(3))
	p := m.ProfileAverage(req, 5)
	if f := p.KindFraction(nn.KindFC, nn.KindBatchMM); f < 0.6 {
		t.Errorf("real RMC3 FC share = %.2f, want > 0.6\n%s", f, p.String())
	}
}

// TestRealRMC2SLSShareExceedsRMC3: the relative ordering of SLS shares
// across model classes survives real execution.
func TestRealRMC2SLSShareExceedsRMC3(t *testing.T) {
	req2Model := buildProfiled(t, RMC2Small().Scaled(200))
	req3Model := buildProfiled(t, RMC3Small().Scaled(200))
	r2 := req2Model.ProfileAverage(NewRandomRequest(req2Model.Config, 8, stats.NewRNG(4)), 5)
	r3 := req3Model.ProfileAverage(NewRandomRequest(req3Model.Config, 8, stats.NewRNG(5)), 5)
	if r2.KindFraction(nn.KindSLS) <= r3.KindFraction(nn.KindSLS) {
		t.Errorf("RMC2 SLS share (%.2f) should exceed RMC3's (%.2f) in real execution",
			r2.KindFraction(nn.KindSLS), r3.KindFraction(nn.KindSLS))
	}
}

func TestAveragePanics(t *testing.T) {
	m := buildProfiled(t, RMC1Small().Scaled(100))
	req := NewRandomRequest(m.Config, 1, stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ProfileAverage(req, 0)
}
