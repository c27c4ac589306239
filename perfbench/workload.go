package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/shard"
	"recsys/internal/stats"
	"recsys/internal/tensor"
	"recsys/internal/trace"
)

// workload is one traffic mix: the model and engine it builds, the
// queries it sends, and how it sends them. Each workload makes a
// different layer do most of the work (see README.md).
type workload struct {
	name       string
	cfg        model.Config
	int8Tables bool
	opts       engine.Options
	// shards is the number of loopback embedding shard servers; 0 keeps
	// the tables in process.
	shards int
	// http sends queries as POST /rank bodies over loopback; otherwise
	// they go straight to Engine.RankInto.
	http bool
	// sizes and weights give the per-query sample counts and how often
	// each is drawn.
	sizes, weights []int
	// zipf is the sparse-ID skew; 0 draws IDs uniformly.
	zipf float64
	// pool is the number of distinct pre-built queries.
	pool int
	// openRate is the open-loop arrival rate in requests/s; 0 means the
	// workload runs closed loop only.
	openRate float64
	sla      time.Duration
	// clients is the closed-loop caller count.
	clients int
	// swapEvery is the Engine.Swap period; 0 never swaps.
	swapEvery time.Duration
}

// modelName is the registry name every workload serves under.
const modelName = "bench"

// workloads returns the benchmark's traffic mixes. Load generation and
// engine workers never use more goroutines than there are CPUs.
func workloads(nproc int) []workload {
	return []workload{
		{
			name: "http-rmc1",
			cfg:  model.RMC1Small(),
			opts: engine.Options{Workers: nproc, QueueDepth: 256, MaxBatch: 64, MaxWait: time.Millisecond},
			http: true,
			// Mean 11.2 samples per query.
			sizes: []int{1, 4, 16, 64}, weights: []int{40, 30, 20, 10},
			pool:     1024,
			openRate: 150,
			sla:      10 * time.Millisecond,
			clients:  nproc,
		},
		{
			name: "offline-rmc3",
			cfg:  model.RMC3Small().Scaled(100),
			opts: engine.Options{Workers: 1, QueueDepth: 16, MaxBatch: 256, IntraOpWorkers: nproc},
			// An offline scoring job has no arrival process; its SLA
			// bounds one batch call.
			sizes: []int{256}, weights: []int{1},
			pool:    24,
			sla:     100 * time.Millisecond,
			clients: 1,
		},
		{
			name:       "sharded-rmc2-swap",
			cfg:        model.RMC2Small().Scaled(100),
			int8Tables: true,
			opts: engine.Options{Workers: nproc, QueueDepth: 256, MaxBatch: 64, MaxWait: time.Millisecond,
				EmbCache: engine.EmbCacheOptions{RowsPerTable: 1024, Policy: "lru"}},
			shards: 2,
			http:   true,
			sizes:  []int{4}, weights: []int{1},
			zipf: 1.1,
			pool: 512,
			// Closed loop only: on a 2-vCPU host an open loop at any
			// useful rate spread 25-80% in p50 between runs.
			sla:       50 * time.Millisecond,
			clients:   nproc,
			swapEvery: time.Second,
		},
	}
}

func findWorkload(name string, nproc int) (workload, error) {
	for _, w := range workloads(nproc) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// build materializes the workload's model from seed. Every call with
// the same seed yields the same weights.
func (w *workload) build(seed uint64) (*model.Model, error) {
	m, err := model.Build(w.cfg, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	if w.int8Tables {
		m.QuantizeTables()
	}
	return m, nil
}

// query is one pre-built request with its expected scores.
type query struct {
	req   model.Request // in-process workloads only
	body  []byte        // HTTP workloads only
	want  []float32
	batch int
}

// makePool generates the workload's queries from seed and scores each
// one on ref, a model built independently of the one being served.
// ref runs the serial hot path, which the engine is bit-identical to.
func (w *workload) makePool(seed uint64, ref *model.Model) ([]query, error) {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	gens := make([]trace.IDGenerator, len(w.cfg.Tables))
	for i, t := range w.cfg.Tables {
		if w.zipf > 0 {
			gens[i] = trace.NewZipfian(t.Rows, w.zipf, rng.Split())
		} else {
			gens[i] = trace.NewUniform(t.Rows, rng.Split())
		}
	}
	// Sizes come in exact proportion to their weights, in seeded order,
	// so every seed offers the same mix of work.
	total := 0
	for _, wt := range w.weights {
		total += wt
	}
	sizes := make([]int, 0, w.pool)
	for j, wt := range w.weights {
		for k := 0; k < w.pool*wt/total; k++ {
			sizes = append(sizes, w.sizes[j])
		}
	}
	for len(sizes) < w.pool {
		sizes = append(sizes, w.sizes[0])
	}
	arena := tensor.NewArena()
	pool := make([]query, w.pool)
	for i, k := range rng.Perm(w.pool) {
		size := sizes[k]
		req := model.NewRandomRequest(w.cfg, size, rng)
		for t, g := range gens {
			g.Fill(req.SparseIDs[t])
		}
		arena.Reset()
		q := query{batch: size, want: ref.AppendCTR(nil, req, arena, 1)}
		if w.http {
			body, err := json.Marshal(engine.RankRequest{Dense: denseRows(req.Dense), SparseIDs: req.SparseIDs})
			if err != nil {
				return nil, err
			}
			q.body = body
		} else {
			q.req = req
		}
		pool[i] = q
	}
	return pool, nil
}

func denseRows(t *tensor.Tensor) [][]float32 {
	if t == nil {
		return nil
	}
	rows := make([][]float32, t.Dim(0))
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// rig is one set-up instance of a workload: the engine with the model
// registered, plus the shard tier and HTTP front it routes through.
type rig struct {
	w       *workload
	eng     *engine.Engine
	model   *model.Model
	shards  []*shard.Server
	client  *shard.Client
	httpSrv *http.Server
	url     string
	// spans receives the handler spans when the rig is traced.
	spans *spanLog
	wg    sync.WaitGroup
}

// setup builds the model, starts the shard tier, the engine and the
// HTTP front, and returns once the first query came back correct.
// traceRing > 0 enables the engine's request tracing and the
// benchmark's handler spans.
func (w *workload) setup(seed uint64, traceRing int, first *query, spans *spanLog) (*rig, error) {
	r := &rig{w: w}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	m, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	r.model = m
	if w.shards > 0 {
		// The in-process shard servers share one read-only replica of
		// the tables; each is asked only for the rows that hash to it.
		replica, err := w.build(seed)
		if err != nil {
			return nil, err
		}
		stores := make([]nn.RowStore, len(replica.SLS))
		for t, op := range replica.SLS {
			stores[t] = op.LocalStore()
		}
		addrs := make([]string, w.shards)
		for i := range addrs {
			srv, err := shard.NewServer(stores, shard.ServerOptions{})
			if err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			r.shards = append(r.shards, srv)
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				_ = srv.Serve(ln) // returns once close stops the server
			}()
			addrs[i] = ln.Addr().String()
		}
		if r.client, err = shard.Dial(shard.Options{Addrs: addrs}); err != nil {
			return nil, err
		}
	}
	opts := w.opts
	opts.TraceRing = traceRing
	if r.eng, err = engine.NewEngine(opts); err != nil {
		return nil, err
	}
	if err := r.eng.Register(modelName, m, engine.ModelOptions{EmbShards: r.client}); err != nil {
		return nil, err
	}
	if w.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		h := r.eng.Handler()
		if traceRing > 0 {
			r.spans = spans
			h = r.traceHandler(h)
		}
		r.httpSrv = &http.Server{Handler: h}
		r.url = "http://" + ln.Addr().String() + "/rank"
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = r.httpSrv.Serve(ln) // returns once close stops the server
		}()
	}
	c := r.newCaller()
	defer c.close()
	match, err := r.do(c, first, -1)
	if err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	if !match {
		return nil, fmt.Errorf("first query: scores differ from the reference model")
	}
	ok = true
	return r, nil
}

// traceHandler wraps the engine's handler with a span per request,
// keyed by the request id the load generator puts in a header.
func (r *rig) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(rw, req)
		end := time.Now()
		// Requests without an id (the set-up's first query) are not
		// part of any phase.
		if id, err := strconv.ParseInt(req.Header.Get(reqIDHeader), 10, 64); err == nil {
			r.spans.add(span{Name: "handler", ID: id, Parent: id, start: start, end: end})
		}
	})
}

func (r *rig) close() {
	if r.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.httpSrv.Shutdown(ctx)
		cancel()
		r.httpSrv.Close()
	}
	if r.eng != nil {
		r.eng.Close()
	}
	if r.client != nil {
		r.client.Close()
	}
	for _, s := range r.shards {
		s.Close()
	}
	r.wg.Wait()
}

// reqIDHeader carries the benchmark's request id to the handler span.
const reqIDHeader = "X-Bench-Request"

// caller is one load-generator connection or in-process caller.
type caller struct {
	http *http.Client
	tr   *http.Transport
	dst  []float32
}

func (r *rig) newCaller() *caller {
	c := &caller{}
	if r.w.http {
		// One keep-alive connection per caller.
		c.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c.http = &http.Client{Transport: c.tr}
	}
	return c
}

func (c *caller) close() {
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
}

// do sends q and reports whether the scores match the reference bit
// for bit. id >= 0 tags the request for the handler span.
func (r *rig) do(c *caller, q *query, id int64) (bool, error) {
	if !r.w.http {
		out, err := r.eng.RankInto(context.Background(), modelName, c.dst[:0], q.req)
		c.dst = out
		if err != nil {
			return false, err
		}
		return sameBits(out, q.want), nil
	}
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(q.body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 && r.spans != nil {
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	// Read to EOF so the keep-alive connection is reused.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out engine.RankResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return false, err
	}
	return sameBits(out.CTR, q.want), nil
}

func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
