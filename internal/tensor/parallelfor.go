package tensor

import "sync"

// Intra-op kernel fan-out (row-partitioned GEMM and SLS shards) runs on
// goroutines other than the caller's, and a panic on a bare goroutine
// kills the whole process — no enclosing recover, anywhere, can catch
// it. In a co-located serving engine that turns one bad shard into an
// outage for every model on the host. ParallelFor is the only
// sanctioned way to fan work out inside a kernel: each shard
// runs under its own recover, the first captured panic is re-raised on
// the *calling* goroutine after every shard has finished, and callers
// therefore observe exactly the serial kernel's panic behaviour — which
// the engine's per-request recover can convert into an error.

// shardGroup runs ParallelFor's chunks as goroutines while confining
// their panics: run wraps each shard in a recover, and wait re-panics
// the first captured panic value on the waiting goroutine once all
// shards are done. The zero value is ready to use; a group must not be
// reused after wait.
type shardGroup struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	pval any  // first captured panic value
	pset bool // distinguishes panic(nil)-adjacent values from "no panic"
}

// run starts fn as one shard.
func (g *shardGroup) run(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.mu.Lock()
				if !g.pset {
					g.pset, g.pval = true, r
				}
				g.mu.Unlock()
			}
		}()
		fn()
	}()
}

// wait blocks until every shard started with run has returned, then
// re-panics the first captured shard panic, if any, on the caller.
func (g *shardGroup) wait() {
	g.wg.Wait()
	// No lock needed: wg.Wait orders all shard writes before this read.
	if g.pset {
		panic(g.pval)
	}
}

// ParallelFor splits the row range [0, n) into one contiguous chunk per
// worker and runs body(lo, hi) for each chunk, in parallel for
// workers > 1 and inline for workers <= 1. Chunks partition the range
// exactly (each index is owned by one body call), so row-partitioned
// kernels keep their serial accumulation order and stay bit-identical.
// A panic in any chunk is re-raised on the calling goroutine after all
// chunks finish.
func ParallelFor(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var g shardGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, min(lo+chunk, n)
		g.run(func() { body(lo, hi) })
	}
	g.wait()
}
