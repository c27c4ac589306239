package model

import (
	"testing"
	"time"

	"recsys/internal/embcache"
	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// TestForwardExMatchesForward checks the arena-backed, packed,
// parallel hot path is bit-identical to the serial allocating
// reference across all three model classes, and that one arena can be
// recycled across requests of different batch sizes.
func TestForwardExMatchesForward(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(50),
		RMC2Small().Scaled(200),
		RMC3Small().Scaled(100),
		MLPerfNCF(),
	} {
		m, err := Build(cfg, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		arena := tensor.NewArena()
		for _, batch := range []int{1, 7, 32} {
			req := NewRandomRequest(cfg, batch, stats.NewRNG(uint64(batch)))
			want := m.Forward(req)
			for _, workers := range []int{0, 1, 2, 5} {
				arena.Reset()
				got := m.ForwardEx(req, arena, workers)
				// Bit-identical on the Go kernel tier; on AVX2 the
				// FMA-fused GEMMs are held to the epsilon contract (512
				// bounds the widest FC inner dimension in these configs).
				if !tensor.GemmClose(got, want, 512) {
					t.Fatalf("%s batch %d workers %d: hot path deviates from reference", cfg.Name, batch, workers)
				}
			}
		}
	}
}

// TestForwardExSteadyStateZeroAllocs is the allocation contract of the
// tentpole: with a warm arena and serial kernels, a forward pass makes
// zero heap allocations.
func TestForwardExSteadyStateZeroAllocs(t *testing.T) {
	cfg := RMC1Small().Scaled(50)
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 16, stats.NewRNG(2))
	arena := tensor.NewArena()
	m.ForwardEx(req, arena, 1) // warm: packs weights, grows the slab
	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		m.ForwardEx(req, arena, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardEx allocates %v times per pass, want 0", allocs)
	}
}

func TestAppendCTRMatchesCTR(t *testing.T) {
	cfg := RMC2Small().Scaled(200)
	m, err := Build(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 9, stats.NewRNG(4))
	want := m.CTR(req)
	arena := tensor.NewArena()
	got := m.AppendCTR(nil, req, arena, 2)
	if len(got) != len(want) {
		t.Fatalf("AppendCTR length %d, want %d", len(got), len(want))
	}
	// CTR goes through Forward (reference GEMM), AppendCTR through the
	// packed hot path — exact on the Go tier, epsilon on AVX2.
	ctrTol := float32(0)
	if !tensor.GemmBitExact() {
		_, atol := tensor.GemmTol(512)
		ctrTol = float32(atol)
	}
	for i := range want {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > ctrTol {
			t.Fatalf("AppendCTR[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// asyncSource is a GatherSource over an op's local tables that fetches
// each miss list on its own goroutine, so the forward pass runs with
// rows in flight exactly as it does against a remote shard tier.
type asyncSource struct{ nn.RowStore }

func (s asyncSource) BeginGather(ids []int64, dstRows []int32, dst *tensor.Tensor, _ time.Time) nn.PendingGather {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, id := range ids {
			s.ReadRow(id, dst.Row(int(dstRows[i])))
		}
	}()
	return pendingGather(done)
}

type pendingGather chan struct{}

func (p pendingGather) Wait() (bool, error) {
	<-p
	return false, nil
}

// TestForwardSpansEmitsEveryStage: the instrumented pass reports one
// span per operator in execution order and stays bit-identical to the
// uninstrumented hot path — also when every SLS op gathers through an
// asynchronous GatherSource (with a row cache on alternate tables), so
// a remote gather still costs exactly one span per op.
func TestForwardSpansEmitsEveryStage(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(50),  // dot interaction
		RMC2Small().Scaled(200), // cat interaction
		MLPerfNCF(),             // no dense path
	} {
		m, err := Build(cfg, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		req := NewRandomRequest(cfg, 6, stats.NewRNG(2))
		want := m.Forward(req)
		local := m.ForwardEx(req, nil, 2)
		wantSpans := len(cfg.Tables) + 3 // SLS each + concat + top + sigmoid
		if cfg.DenseIn > 0 {
			wantSpans++ // bottom MLP
		}
		if cfg.Interaction == Dot {
			wantSpans++ // feature interaction
		}
		check := func(path string) {
			var rec obs.SpanRecorder
			got := m.ForwardDeadline(req, tensor.NewArena(), 2, &rec, time.Time{})
			if !tensor.GemmClose(got, want, 512) {
				t.Errorf("%s %s: instrumented pass deviates from reference", cfg.Name, path)
			}
			if !tensor.Equal(got, local, 0) {
				t.Errorf("%s %s: instrumented pass not bit-identical to the local hot path", cfg.Name, path)
			}
			if len(rec.Spans) != wantSpans {
				t.Errorf("%s %s: %d spans, want %d (%v)", cfg.Name, path, len(rec.Spans), wantSpans, rec.Spans)
			}
			sls := 0
			for _, s := range rec.Spans {
				if s.Kind == nn.KindSLS.String() {
					sls++
				}
			}
			if sls != len(cfg.Tables) {
				t.Errorf("%s %s: %d SLS spans, want one per table (%d)", cfg.Name, path, sls, len(cfg.Tables))
			}
			if rec.TotalUS() <= 0 {
				t.Errorf("%s %s: zero total span time", cfg.Name, path)
			}
			if last := rec.Spans[len(rec.Spans)-1].Kind; last != nn.KindActivation.String() {
				t.Errorf("%s %s: final span kind %v, want activation", cfg.Name, path, last)
			}
		}
		check("local")
		for i, op := range m.SLS {
			op.SetRowStore(asyncSource{op.LocalStore()})
			if i%2 == 0 {
				cache, err := embcache.NewConcurrent(16, op.Table.Cols, "lru", 1)
				if err != nil {
					t.Fatal(err)
				}
				op.SetRowCache(cache)
			}
		}
		check("remote cold")
		check("remote warm")
	}
}

// TestForwardSpansNilObserverZeroAllocs: the hooks must not disturb
// the zero-allocation contract when no observer is attached.
func TestForwardSpansNilObserverZeroAllocs(t *testing.T) {
	cfg := RMC1Small().Scaled(50)
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 16, stats.NewRNG(2))
	arena := tensor.NewArena()
	m.ForwardDeadline(req, arena, 1, nil, time.Time{})
	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		m.ForwardDeadline(req, arena, 1, nil, time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("nil-observer ForwardDeadline allocates %v times per pass, want 0", allocs)
	}
}
