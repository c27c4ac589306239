package nn

import (
	"fmt"
	"sync"
	"time"

	"recsys/internal/tensor"
)

// RowCache is the read-through hot-row cache the serving gather
// consults before touching the table (satisfied by
// embcache.Concurrent). Generation tokens make invalidation safe
// against in-flight passes: a pass captures Gen() once, stale-token
// lookups always miss, and stale-token inserts are dropped.
type RowCache interface {
	Gen() uint64
	Lookup(gen, id uint64, dst []float32) bool
	Insert(gen, id uint64, src []float32)
	Invalidate()
	Cols() int
}

// Gather plans pack (row ID, position) into one int64 so the dedup
// sort is a single allocation-free pass over machine words.
// planPosBits bounds the positions (batch × lookups) a plan can
// address; larger gathers fall back to the direct path.
const planPosBits = 24
const maxPlanPositions = 1 << planPosBits

// The dedup sort is a stable LSD radix sort over the ID field only
// (bits ≥ planPosBits): keys are packed in position order and counting
// passes are stable, so positions sharing an ID stay in ascending
// order without ever sorting the position bits. 11-bit digits keep the
// count array L1-resident (8 KB) while covering any realistic table in
// two passes (≤ 4M rows); comparison sorting the same keys costs
// several times more on the profiled serving path.
const radixBits = 11
const radixSize = 1 << radixBits

// gatherPlan is the reusable scratch for one planned gather: the
// merged batch's IDs dedup-sorted into a unique list plus a
// per-position index into it. Plans are pooled; the arena owns the
// staging rows themselves.
type gatherPlan struct {
	keys  []int64 // packed (id << planPosBits) | position, then sorted
	tmp   []int64 // radix-sort ping-pong buffer
	uniq  []int64 // unique row IDs, ascending
	index []int32 // per original position: row index into the staging buffer

	// Miss-list scratch for a GatherSource: the unique rows the cache
	// could not serve, as (row ID, staging row) pairs — the sub-plan
	// BeginGather fans out per shard.
	missIDs  []int64
	missRows []int32
}

var planPool = sync.Pool{New: func() any { return new(gatherPlan) }}

// build dedups and sorts ids, filling uniq and index, and returns the
// unique-row count. Positions sharing a row ID sort adjacently, so one
// ascending walk assigns staging indices; the low position bits keep
// keys distinct without affecting ID order.
func (p *gatherPlan) build(ids []int) int {
	n := len(ids)
	if cap(p.keys) < n {
		p.keys = make([]int64, n)
		p.tmp = make([]int64, n)
		p.index = make([]int32, n)
		p.uniq = make([]int64, 0, n)
	}
	p.keys = p.keys[:n]
	p.tmp = p.tmp[:n]
	p.index = p.index[:n]
	p.uniq = p.uniq[:0]
	maxID := 0
	for pos, id := range ids {
		if id > maxID {
			maxID = id
		}
		p.keys[pos] = int64(id)<<planPosBits | int64(pos)
	}
	p.sortByID(uint64(maxID))
	prev := int64(-1)
	for _, k := range p.keys {
		id := k >> planPosBits
		pos := k & (maxPlanPositions - 1)
		if id != prev {
			p.uniq = append(p.uniq, id)
			prev = id
		}
		p.index[pos] = int32(len(p.uniq) - 1)
	}
	return len(p.uniq)
}

// sortByID stable-sorts p.keys by their ID field with an LSD counting
// sort over radixBits-wide digits, ping-ponging between keys and tmp.
// Digits above the largest ID are all zero, so passes stop as soon as
// maxID's remaining bits are exhausted — one pass per 2048 rows of
// table height, two for anything up to 4M rows.
func (p *gatherPlan) sortByID(maxID uint64) {
	src, dst := p.keys, p.tmp
	swapped := false
	for shift := uint(planPosBits); maxID>>(shift-planPosBits) != 0; shift += radixBits {
		var count [radixSize]int32
		for _, k := range src {
			count[(uint64(k)>>shift)&(radixSize-1)]++
		}
		sum := int32(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			d := (uint64(k) >> shift) & (radixSize - 1)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(p.keys, src)
	}
}

// SetRowCache attaches (or, with nil, detaches) a read-through row
// cache; ForwardEx then takes the planned gather. The op must not
// be serving when the attached cache changes — the engine attaches
// before a model is published and the same-cache re-attach on hot swap
// is a guarded no-op, so swap traffic never races this write.
func (s *SLSOp) SetRowCache(c RowCache) {
	if c == s.cache {
		return
	}
	if c != nil && c.Cols() != s.Table.Cols {
		panic(fmt.Sprintf("nn: row cache width %d does not match table width %d", c.Cols(), s.Table.Cols))
	}
	s.cache = c
}

// RowCacheRef returns the attached row cache, if any.
func (s *SLSOp) RowCacheRef() RowCache { return s.cache }

// InvalidateCachedRows discards the attached cache's rows (generation
// bump). The trainer calls this after sparse-row updates, mirroring
// FC.InvalidatePacked for packed dense weights.
func (s *SLSOp) InvalidateCachedRows() {
	if s.cache != nil {
		s.cache.Invalidate()
	}
}

// SLSForward is one SLS forward split in two: Begin plans the gather
// and starts it, Finish completes it and pools. It is the only planned
// gather — ForwardEx is Begin followed at once by Finish — and the
// split lets the model run the Bottom-MLP while a GatherSource's rows
// are in flight: the overlap internal/dist's Estimate models (TotalUS =
// max(Bottom, Shard+Net) + Top).
//
// The planned gather is locality-aware: dedup the merged batch's IDs
// (co-batched requests share hot rows), stage each unique row once —
// through the cache when attached, dequantizing at most once per
// unique row when the table is int8 — into an arena-backed buffer,
// then accumulate pooled sums via plan indices. Output is
// bit-identical to the plan-free paths: staging rows hold the exact
// fp32 (or deterministically dequantized) row values, and each output
// row accumulates them in the original per-sample ID order.
type SLSForward struct {
	op      *SLSOp
	out     *tensor.Tensor
	batch   int
	workers int // resolved intra-op worker count

	// Planned-gather state; plan is nil when Begin ran a plan-free
	// path to completion.
	plan    *gatherPlan
	staging *tensor.Tensor
	gen     uint64
	pending PendingGather
}

// Begin starts one SLS forward into f. f is caller-owned scratch
// (typically a stack value) and must not be reused until Finish
// returns.
//
// The planned gather runs when a row cache is attached, the table is
// int8, or the store is a GatherSource (and the batch fits a plan).
// Begin validates the IDs, builds the dedup plan and consults the row
// cache; then the local store stages the missing rows itself, while a
// GatherSource is handed the miss list and fetches it asynchronously.
// Otherwise — cache-off fp32 serving, or a gather too large for a plan
// — Begin runs the plan-free path to completion.
func (s *SLSOp) Begin(f *SLSForward, ids []int, batch int, a *tensor.Arena, workers int, deadline time.Time) {
	if len(ids) != batch*s.Lookups {
		panic(fmt.Sprintf("nn: SLSOp expects %d IDs for batch %d, got %d", batch*s.Lookups, batch, len(ids)))
	}
	*f = SLSForward{op: s, batch: batch}
	store := s.src()
	gs, async := store.(GatherSource)
	if len(ids) >= maxPlanPositions || !async && s.cache == nil && s.Quant == nil {
		if s.Quant != nil {
			f.out = s.forwardQuantNaive(ids, batch, a)
		} else {
			f.out = s.forwardDirect(ids, batch, a, workers)
		}
		return
	}
	cols := s.Table.Cols
	f.out = allocDense(a, batch, cols)
	s.Table.validateIDs(ids)
	p := planPool.Get().(*gatherPlan)
	f.plan = p
	nUniq := p.build(ids)
	// Staging can skip the arena's zero fill: every row in [0, nUniq)
	// is written — by a cache hit, a local read or the fetch — before
	// Finish reads any of it. (out must stay zeroed: pooling is +=.)
	staging := allocDenseUninit(a, nUniq, cols)
	var gen uint64
	if s.cache != nil {
		gen = s.cache.Gen()
	}
	f.staging, f.gen = staging, gen
	f.workers = slsWorkers(workers, batch, len(ids)*cols)
	p.missIDs = p.missIDs[:0]
	p.missRows = p.missRows[:0]
	if !async {
		if f.workers <= 1 {
			// Inline serial path: the parallel branch's closure must not
			// be reached here, or its allocation would break the
			// steady-state zero-alloc contract.
			s.stageRows(store, staging, p.uniq, 0, nUniq, gen)
		} else {
			tensor.ParallelFor(nUniq, f.workers, func(lo, hi int) {
				s.stageRows(store, staging, p.uniq, lo, hi, gen)
			})
		}
		return
	}
	for u, id := range p.uniq {
		if s.cache != nil && s.cache.Lookup(gen, uint64(id), staging.Row(u)) {
			continue
		}
		p.missIDs = append(p.missIDs, id)
		p.missRows = append(p.missRows, int32(u))
	}
	if len(p.missIDs) > 0 {
		f.pending = gs.BeginGather(p.missIDs, p.missRows, staging, deadline)
	}
}

// stageRows materializes unique rows [lo, hi) into the staging buffer
// from a local store: cache hit, else a row-store read (fp32 copy or
// int8 dequant) followed by a read-through insert.
func (s *SLSOp) stageRows(store RowStore, staging *tensor.Tensor, uniq []int64, lo, hi int, gen uint64) {
	for u := lo; u < hi; u++ {
		id := uniq[u]
		dst := staging.Row(u)
		if s.cache != nil && s.cache.Lookup(gen, uint64(id), dst) {
			continue
		}
		store.ReadRow(id, dst)
		if s.cache != nil {
			s.cache.Insert(gen, uint64(id), dst)
		}
	}
}

// Finish completes the forward begun by Begin and returns the pooled
// output. If a gather is in flight it waits for the rows, then applies
// the generation protocol: insert the fetched rows under the captured
// token, or invalidate the cache when the source's generation moved.
// It then accumulates in the same per-sample ID order as every other
// path, so results are bit-identical to the local gather as long as
// the source serves the same row values. A fetch error panics with the
// source's error value (the engine's recover maps it to its HTTP
// taxonomy).
func (f *SLSForward) Finish() *tensor.Tensor {
	p := f.plan
	if p == nil {
		return f.out
	}
	s := f.op
	if f.pending != nil {
		genChanged, err := f.pending.Wait()
		if err != nil {
			planPool.Put(p)
			panic(err)
		}
		if s.cache != nil {
			if genChanged {
				// The source rewrote rows since the last gather: rows
				// read from the cache this pass may be stale (same
				// in-flight window a local trainer's invalidation has);
				// dropping the generation re-fetches everything next
				// pass instead of inserting possibly-mixed rows under
				// the old token.
				s.cache.Invalidate()
			} else {
				for i, id := range p.missIDs {
					s.cache.Insert(f.gen, uint64(id), f.staging.Row(int(p.missRows[i])))
				}
			}
		}
	}
	out, sd, index, l := f.out, f.staging.Data(), p.index, s.Lookups
	if f.workers <= 1 {
		poolUniform(out, sd, index, l, 0, f.batch)
	} else {
		tensor.ParallelFor(f.batch, f.workers, func(lo, hi int) {
			poolUniform(out, sd, index, l, lo, hi)
		})
	}
	planPool.Put(p)
	f.plan = nil
	return out
}

// forwardQuantNaive is the plan-free int8 reference: dequantize every
// occurrence on the fly via the fused dequantize-accumulate kernel,
// exactly like QuantizedTable.SparseLengthsSum with a uniform lengths
// vector. It is Forward's equivalence baseline and the fallback for
// gathers too large for a plan.
func (s *SLSOp) forwardQuantNaive(ids []int, batch int, a *tensor.Arena) *tensor.Tensor {
	cols := s.Table.Cols
	out := allocDense(a, batch, cols)
	s.Table.validateIDs(ids)
	l := s.Lookups
	for k := 0; k < batch; k++ {
		d := out.Row(k)
		for _, id := range ids[k*l : (k+1)*l] {
			s.Quant.AccumRow(id, d)
		}
	}
	return out
}
