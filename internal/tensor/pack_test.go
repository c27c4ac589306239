package tensor

import (
	"testing"

	"recsys/internal/stats"
)

// packShapes covers the degenerate and odd cases the micro-kernel's
// tiling must survive: single rows/columns, inner dims of 1, sizes
// that are not multiples of blockSize (64) or the nr=4 register tile.
var packShapes = [][3]int{
	{1, 1, 1},
	{1, 8, 8},
	{8, 1, 8},
	{8, 8, 1},
	{3, 5, 7},
	{64, 64, 64},
	{64, 32, 48},
	{65, 63, 66},
	{300, 64, 80},
	{517, 33, 129},
	{2, 130, 3},
}

// assertGemmMatch applies the tier-dependent numerics contract (see
// cpu.go): the pure-Go packed kernel must be bit-identical to the
// serial Gemm reference; the AVX2/FMA tier is held to the
// relative-epsilon bound instead.
func assertGemmMatch(t *testing.T, got, want *Tensor, k int, context string) {
	t.Helper()
	if !GemmClose(got, want, k) {
		if GemmBitExact() {
			t.Fatalf("%s: go-tier packed result not bit-identical to serial Gemm", context)
		}
		t.Fatalf("%s: %s-tier packed result beyond epsilon of serial Gemm", context, KernelTier())
	}
}

func TestGemmPackedMatchesSerial(t *testing.T) {
	r := stats.NewRNG(21)
	for _, dims := range packShapes {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		want := New(dims[0], dims[2])
		Gemm(a, b, want)
		pb := PackB(b)
		got := New(dims[0], dims[2])
		GemmPacked(a, pb, got)
		assertGemmMatch(t, got, want, dims[1], benchName(dims))
	}
}

func TestParallelGemmPackedMatchesSerial(t *testing.T) {
	r := stats.NewRNG(22)
	for _, dims := range packShapes {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		want := New(dims[0], dims[2])
		Gemm(a, b, want)
		pb := PackB(b)
		// Serial packed result: the parallel row partition must
		// reproduce it exactly on every tier, since each output row is
		// owned by one worker.
		serial := New(dims[0], dims[2])
		GemmPacked(a, pb, serial)
		for _, workers := range []int{0, 1, 2, 7} {
			got := New(dims[0], dims[2])
			ParallelGemmPacked(a, pb, got, workers)
			assertGemmMatch(t, got, want, dims[1], benchName(dims))
			if !Equal(got, serial, 0) {
				t.Fatalf("dims %v workers %d: parallel packed result not bit-identical to serial packed", dims, workers)
			}
		}
	}
}

// TestParallelGemmPackedMultiBlock forces the kc cache blocking to
// span several L2 blocks (k·n·4 well above l2PanelBytes) and checks
// the blocked parallel pass stays bit-identical to the serial packed
// kernel on the active tier — the per-row panel order is unchanged by
// blocking, so not even the FMA tier may drift.
func TestParallelGemmPackedMultiBlock(t *testing.T) {
	r := stats.NewRNG(29)
	m, k, n := 40, 1024, 512
	if parallelKC(n) >= k {
		t.Fatalf("shape %dx%dx%d does not exercise multiple kc blocks (kc=%d)", m, k, n, parallelKC(n))
	}
	a := randTensor(r, m, k)
	b := randTensor(r, k, n)
	pb := PackB(b)
	serial := New(m, n)
	GemmPacked(a, pb, serial)
	for _, workers := range []int{2, 3, 7} {
		got := New(m, n)
		ParallelGemmPacked(a, pb, got, workers)
		if !Equal(got, serial, 0) {
			t.Fatalf("workers %d: multi-block parallel result not bit-identical to serial packed", workers)
		}
	}
}

func TestParallelGemmAccumulates(t *testing.T) {
	r := stats.NewRNG(13)
	a := randTensor(r, 256, 64)
	pb := PackB(randTensor(r, 64, 64))
	got := randTensor(r, 256, 64)
	want := got.Clone()
	GemmPacked(a, pb, want)
	ParallelGemmPacked(a, pb, got, 4)
	if !Equal(got, want, 0) {
		t.Fatal("parallel accumulation differs from serial")
	}
}

func TestParallelGemmPanicsOnShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := randTensor(stats.NewRNG(1), 2, 5)
	ParallelGemmPacked(New(4, 3), PackB(b), New(4, 5), 2)
}

// TestParallelGemmShardPanicRecoverable: a panic raised inside the
// row-partitioned GEMM fan-out (injected via a packed B whose backing
// array is shorter than its K×N header claims, so every shard's panel
// slice fails before any kernel runs) is observable with a plain
// recover on the calling goroutine.
func TestParallelGemmShardPanicRecoverable(t *testing.T) {
	const m, k, n = 64, 64, 64 // above minParallelMAdds, so fan-out engages
	pb := &PackedB{K: k, N: n, data: make([]float32, (k-1)*n)}
	defer func() {
		if recover() == nil {
			t.Error("undersized packed B should have panicked recoverably")
		}
	}()
	ParallelGemmPacked(New(m, k), pb, New(m, n), 4)
}

func TestGemmPackedAccumulates(t *testing.T) {
	r := stats.NewRNG(23)
	a := randTensor(r, 70, 65)
	b := randTensor(r, 65, 67)
	got := randTensor(r, 70, 67)
	want := got.Clone()
	Gemm(a, b, want)
	GemmPacked(a, PackB(b), got)
	assertGemmMatch(t, got, want, 65, "70x65x67 accumulate")
}

// TestGemmPackedZeroSkip checks the packed kernel preserves the
// reference kernel's skip of zero A entries, which matters for
// bit-identical signed zeros and NaN propagation.
func TestGemmPackedZeroSkip(t *testing.T) {
	a := New(1, 2)
	a.Set(0, 0, 0) // zero entry must be skipped, not multiplied
	a.Set(2, 0, 1)
	b := New(2, 4)
	for j := 0; j < 4; j++ {
		b.Set(float32(j+1), 0, j)
		b.Set(float32(j+5), 1, j)
	}
	want := New(1, 4)
	Gemm(a, b, want)
	got := New(1, 4)
	GemmPacked(a, PackB(b), got)
	if !Equal(got, want, 0) {
		t.Fatal("zero-skip behaviour differs")
	}
}

func TestGemmPackedPanicsOnShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := randTensor(stats.NewRNG(1), 2, 5)
	GemmPacked(New(4, 3), PackB(b), New(4, 5))
}

func BenchmarkGemmSerial(b *testing.B) {
	benchGemm(b, func(a, w, c *Tensor, _ *PackedB) { Gemm(a, w, c) })
}

func BenchmarkGemmPacked(b *testing.B) {
	benchGemm(b, func(a, _, c *Tensor, pb *PackedB) { GemmPacked(a, pb, c) })
}

func BenchmarkGemmPackedParallel(b *testing.B) {
	benchGemm(b, func(a, _, c *Tensor, pb *PackedB) { ParallelGemmPacked(a, pb, c, 0) })
}

func benchGemm(b *testing.B, f func(a, w, c *Tensor, pb *PackedB)) {
	r := stats.NewRNG(1)
	for _, dims := range [][3]int{{64, 512, 512}, {256, 512, 512}} {
		b.Run(benchName(dims), func(b *testing.B) {
			a := randTensor(r, dims[0], dims[1])
			w := randTensor(r, dims[1], dims[2])
			pb := PackB(w)
			c := New(dims[0], dims[2])
			b.SetBytes(int64(4 * dims[0] * dims[1] * dims[2]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Fill(0)
				f(a, w, c, pb)
			}
		})
	}
}

func benchName(d [3]int) string {
	return "m" + itoa(d[0]) + "k" + itoa(d[1]) + "n" + itoa(d[2])
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
