package tensor

// Arena is a bump allocator for forward-pass scratch tensors. A
// steady-state inference pass allocates every activation from an
// arena and calls Reset between requests, so the per-request heap
// allocation count drops to zero once the slab has grown to the
// pass's working-set size (the paper's at-scale inference loop runs
// the same operator sequence per request, so the working set is
// fixed after the first pass).
//
// An Arena is NOT safe for concurrent use; give each inference
// worker its own. Tensors returned by Alloc alias the arena's slab
// and become invalid at the next Reset — copy anything that must
// outlive the pass.
type Arena struct {
	f32 slab[float32]

	// tensors caches the *Tensor headers (and their shape slices)
	// handed out since the last Reset, reused in order on the next
	// pass so header allocation is also amortized to zero.
	tensors []*Tensor
	used    int

	ptrs []*Tensor // scratch for Ptrs

	// i16/i32: integer scratch for the register-tiled int8 GEMM
	// (widened activation codes and per-row zero points), so the int8
	// hot path also reaches zero steady-state allocations.
	i16 slab[int16]
	i32 slab[int32]
}

// slab is one bump-allocated backing array of the arena.
type slab[T any] struct {
	buf []T
	off int
	// total counts elements handed out since the last reset. When a
	// pass outgrows buf, reset uses it to allocate one right-sized
	// array, so a fixed per-pass working set reaches zero allocations
	// by the second pass.
	total int
}

// alloc carves n elements without clearing them. When buf is
// exhausted a larger one is allocated; slices handed out earlier keep
// referencing the old array, so they stay valid for the remainder of
// the pass.
func (s *slab[T]) alloc(n int) []T {
	s.total += n
	if s.off+n > len(s.buf) {
		s.buf = make([]T, max(2*len(s.buf), s.total, 1024))
		s.off = 0
	}
	d := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return d
}

// reset recycles the slab, first growing buf to the finished pass's
// total if it did not fit.
func (s *slab[T]) reset() {
	if s.total > len(s.buf) {
		s.buf = make([]T, s.total)
	}
	s.off, s.total = 0, 0
}

// NewArena returns an empty arena; the slab grows on demand.
func NewArena() *Arena { return &Arena{} }

// Alloc returns a zero-filled tensor carved from the arena. Shape
// rules match New.
func (a *Arena) Alloc(shape ...int) *Tensor {
	t := a.AllocUninit(shape...)
	clear(t.data)
	return t
}

// AllocUninit is Alloc without the zero fill: the returned tensor's
// contents are whatever a previous pass left in the slab. Only for
// scratch that is fully overwritten before any element is read (e.g.
// the gather staging buffer, where every row is materialized before
// accumulation) — the memclr is pure overhead there and measurably so
// on the SLS hot path. The shape check is inlined with constant-string
// panics (rather than checkShape's formatted ones) so the variadic
// slice never escapes — both Alloc variants must stay
// heap-allocation-free on the steady-state path.
func (a *Arena) AllocUninit(shape ...int) *Tensor {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape")
		}
		n *= d
	}
	data := a.f32.alloc(n)
	var t *Tensor
	if a.used < len(a.tensors) {
		t = a.tensors[a.used]
	} else {
		t = &Tensor{}
		a.tensors = append(a.tensors, t)
	}
	a.used++
	t.shape = append(t.shape[:0], shape...)
	t.data = data
	return t
}

// AllocI16 carves n uninitialized int16s — the widened
// activation-code buffer of the register-tiled int8 GEMM (VPMADDWD
// consumes i16 lanes, so codes are stored pre-widened). Like
// AllocUninit, the contents are whatever a previous pass left behind,
// so it is only for scratch fully overwritten before any read; the
// slice is invalidated by Reset.
func (a *Arena) AllocI16(n int) []int16 { return a.i16.alloc(n) }

// AllocI32 carves n uninitialized int32s — per-row zero points for the
// int8 GEMM epilogue. Same contract as AllocI16.
func (a *Arena) AllocI32(n int) []int32 { return a.i32.alloc(n) }

// Ptrs returns a reusable []*Tensor of length n with nil entries,
// for operator-input scratch (e.g. the Concat input list). The slice
// is owned by the arena and overwritten by the next Ptrs call.
func (a *Arena) Ptrs(n int) []*Tensor {
	if cap(a.ptrs) < n {
		a.ptrs = make([]*Tensor, n)
	}
	p := a.ptrs[:n]
	for i := range p {
		p[i] = nil
	}
	return p
}

// Reset recycles the arena for the next pass. All tensors previously
// returned by Alloc are invalidated: their storage and headers will
// be handed out again. If the finished pass outgrew a slab, one
// right-sized slab is allocated now so the next identical pass fits.
func (a *Arena) Reset() {
	a.f32.reset()
	a.i16.reset()
	a.i32.reset()
	a.used = 0
}
