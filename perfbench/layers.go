package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"recsys/internal/engine"
	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/shard"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// endToEnd and perLayer are the metrics an untraced and a traced run
// print, with their units. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"sla_ok_ratio", "ratio"},
	{"items_per_s", "samples/s"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"engine.handler_us.p50", "us"},
	{"engine.handler_us.p99", "us"},
	{"engine.codec_us.mean", "us"},
	{"loadgen.client_us.p50", "us"},
	{"loadgen.lag_ms.p99", "ms"},
	{"loadgen.lag_ms.max", "ms"},
	{"engine.rank_us.p50", "us"},
	{"engine.rank_us.p99", "us"},
	{"engine.queue_wait_us.p50", "us"},
	{"engine.queue_wait_us.p99", "us"},
	{"engine.batch_form_us.p50", "us"},
	{"engine.exec_us.p50", "us"},
	{"engine.avg_batch", "samples"},
	{"engine.swap_ms.p50", "ms"},
	{"engine.swap_ms.max", "ms"},
	{"nn.fc_us_per_batch", "us"},
	{"nn.sls_us_per_batch", "us"},
	{"nn.interact_us_per_batch", "us"},
	{"nn.fc_share", "ratio"},
	{"nn.sls_share", "ratio"},
	{"tensor.fc_gflops", "GFLOP/s"},
	{"tensor.sls_gbps", "GB/s"},
	{"go.allocs_per_req", "count/req"},
	{"go.gc_per_kreq", "count/kreq"},
	{"embcache.hit_ratio", "ratio"},
	{"embcache.evictions_per_req", "count/req"},
	{"shard.rpcs_per_req", "count/req"},
	{"shard.rpc_us.p50", "us"},
	{"shard.rpc_us.p99", "us"},
	{"shard.hedge_ratio", "ratio"},
	{"shard.hedge_win_ratio", "ratio"},
	{"shard.errors", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
}

type metricDef struct{ name, unit string }

func unitOf(name string) string {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric without a unit: " + name)
}

// counters is a snapshot of everything the program exports about one
// rig, plus the process's allocation counters.
type counters struct {
	st      engine.Stats
	lat     obs.HistSnapshot
	shards  []shard.ShardStats
	mallocs uint64
	numGC   uint32
}

func snapshot(r *rig) (counters, error) {
	var c counters
	var err error
	if c.st, err = r.eng.ModelStats(modelName); err != nil {
		return c, err
	}
	if c.lat, err = r.eng.LatencySnapshot(modelName); err != nil {
		return c, err
	}
	if r.client != nil {
		c.shards = r.client.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.numGC = ms.Mallocs, ms.NumGC
	return c, nil
}

// runTraced measures the per-layer metrics. A first phase on an
// untraced rig gives the baseline for the tracing overhead and the
// allocation counts; the rig is then rebuilt with the engine's trace
// ring on and the benchmark's spans recorded around every call.
func runTraced(w *workload, seed uint64, dur time.Duration, pool []query, rng *stats.RNG, nproc int, res *result) error {
	base, err := w.setup(seed, 0, &pool[0], nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	baseDur := dur / 3
	if w.openRate == 0 {
		baseDur = dur / 2
	}
	b0, err := snapshot(base)
	if err != nil {
		base.close()
		return err
	}
	var basePhase *phase
	lr := &loadRun{r: base, pool: pool}
	if w.openRate > 0 {
		basePhase = lr.openLoop("untraced-open", baseDur, nproc, rng.Split())
	} else {
		basePhase = lr.closedLoop("untraced-closed", baseDur, w.clients, rng.Split())
	}
	b1, err := snapshot(base)
	base.close()
	if err != nil {
		return err
	}
	res.addPhase(basePhase)
	freeMemory()

	res.spans = &spanLog{}
	r, err := w.setup(seed, traceRing, &pool[0], res.spans)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	c0, err := snapshot(r)
	if err != nil {
		return err
	}
	steal := startStealMeter()
	phases, swaps, err := drive(r, pool, dur-baseDur, rng, nproc, res.spans)
	if err != nil {
		return err
	}
	c1, err := snapshot(r)
	if err != nil {
		return err
	}
	dump, err := r.eng.Traces(modelName)
	if err != nil {
		return err
	}
	for _, p := range phases {
		res.addPhase(p)
	}
	l := &layers{w: w, res: res, phases: phases, from: phases[0].start}
	l.http(res.spans)
	l.engine(c0, c1, dump, swaps)
	l.operators(c0, c1)
	l.runtime(basePhase, b0, b1)
	l.tiers(c0, c1)
	l.trace(basePhase, phases[0], dump, c0, c1, res.spans)
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			panic("perfbench: per-layer metric not computed: " + d.name)
		}
	}
	res.info["traced_phases"] = phaseNames(phases)
	res.info["engine_traces_added"] = dump.Added
	res.info["open_loop_valid"] = openLoopValid(append(phases, basePhase))
	res.info["host_steal_ratio"] = steal.ratio()
	return nil
}

func phaseNames(ps []*phase) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.name)
	}
	return out
}

// layers computes the per-layer metrics of one traced run. A metric of
// a layer the workload does not use reads 0 and is listed in
// info["not_exercised"].
type layers struct {
	w      *workload
	res    *result
	phases []*phase
	from   time.Time
}

func (l *layers) set(name string, v float64) { l.res.metrics[name] = v }

func (l *layers) absent(names ...string) {
	for _, n := range names {
		l.set(n, 0)
	}
	prev, _ := l.res.info["not_exercised"].([]string)
	l.res.info["not_exercised"] = append(prev, names...)
}

// http derives the handler and client spans of each request.
func (l *layers) http(spans *spanLog) {
	if !l.w.http {
		l.absent("engine.handler_us.p50", "engine.handler_us.p99", "loadgen.client_us.p50", "loadgen.lag_ms.p99", "loadgen.lag_ms.max")
		return
	}
	handler := map[int64]time.Duration{}
	var hus []float64
	for _, s := range spans.byName("handler") {
		handler[s.ID] = s.dur()
		hus = append(hus, us(s.dur()))
	}
	var client []float64
	for _, s := range spans.byName("request") {
		if h, ok := handler[s.ID]; ok {
			client = append(client, us(s.dur()-h))
		}
	}
	sort.Float64s(hus)
	sort.Float64s(client)
	l.set("engine.handler_us.p50", quantile(hus, 0.5))
	l.set("engine.handler_us.p99", quantile(hus, 0.99))
	l.set("loadgen.client_us.p50", quantile(client, 0.5))
	l.res.info["handler_spans"] = len(hus)
	if !l.phases[0].open {
		l.absent("loadgen.lag_ms.p99", "loadgen.lag_ms.max")
		return
	}
	lags := l.phases[0].lagsMS()
	l.set("loadgen.lag_ms.p99", quantile(lags, 0.99))
	l.set("loadgen.lag_ms.max", quantile(lags, 1))
}

// engine reads the engine's latency histogram, stage traces, batch
// counters and the timed swaps.
func (l *layers) engine(c0, c1 counters, dump obs.Dump, swaps []time.Duration) {
	lat := c1.lat.Sub(c0.lat)
	l.set("engine.rank_us.p50", lat.Quantile(0.5)/1e3)
	l.set("engine.rank_us.p99", lat.Quantile(0.99)/1e3)
	var qw, bf, ex []float64
	for _, t := range l.traces(dump) {
		qw = append(qw, t.QueueWaitUS)
		bf = append(bf, t.BatchFormUS)
		ex = append(ex, t.ExecuteUS)
	}
	for _, xs := range [][]float64{qw, bf, ex} {
		sort.Float64s(xs)
	}
	l.set("engine.queue_wait_us.p50", quantile(qw, 0.5))
	l.set("engine.queue_wait_us.p99", quantile(qw, 0.99))
	l.set("engine.batch_form_us.p50", quantile(bf, 0.5))
	l.set("engine.exec_us.p50", quantile(ex, 0.5))
	l.set("engine.avg_batch", ratio(float64(c1.st.Samples-c0.st.Samples), float64(c1.st.Batches-c0.st.Batches)))
	l.res.info["engine_traces_used"] = len(qw)
	l.res.info["batch_hist"] = histDelta(c0.st.BatchHist, c1.st.BatchHist)
	if l.w.swapEvery == 0 {
		l.absent("engine.swap_ms.p50", "engine.swap_ms.max")
		return
	}
	var sw []float64
	for _, d := range swaps {
		sw = append(sw, ms(d))
	}
	sort.Float64s(sw)
	l.set("engine.swap_ms.p50", quantile(sw, 0.5))
	l.set("engine.swap_ms.max", quantile(sw, 1))
	l.res.info["swaps"] = len(sw)
}

// traces returns the engine's OK traces of the traced phases.
func (l *layers) traces(d obs.Dump) []*obs.Trace {
	var out []*obs.Trace
	for _, t := range d.Recent {
		if t.Outcome == obs.OutcomeOK && !t.Start.Before(l.from) {
			out = append(out, t)
		}
	}
	return out
}

// operators splits the forward passes by operator kind (the paper's
// Fig. 7 breakdown) and converts FC and SLS time into rates, using
// FLOPs and gathered bytes computed from the layer shapes.
func (l *layers) operators(c0, c1 counters) {
	batches := float64(c1.st.Batches - c0.st.Batches)
	kind := map[string]float64{}
	total := 0.0
	for k, v := range c1.st.KindUS {
		kind[k] = v - c0.st.KindUS[k]
		total += kind[k]
	}
	fc, sls := kind[nn.KindFC.String()], kind[nn.KindSLS.String()]
	l.set("nn.fc_us_per_batch", ratio(fc, batches))
	l.set("nn.sls_us_per_batch", ratio(sls, batches))
	l.set("nn.interact_us_per_batch", ratio(kind[nn.KindBatchMM.String()]+kind[nn.KindConcat.String()], batches))
	l.set("nn.fc_share", ratio(fc, total))
	l.set("nn.sls_share", ratio(sls, total))
	var flops, bytes float64
	for size, n := range histDelta(c0.st.BatchHist, c1.st.BatchHist) {
		byKind := l.w.cfg.StatsByKind(size)
		flops += float64(n) * byKind[nn.KindFC].FLOPs
		bytes += float64(n) * byKind[nn.KindSLS].ParamBytes
	}
	l.set("tensor.fc_gflops", ratio(flops, fc*1e3))
	l.set("tensor.sls_gbps", ratio(bytes, sls*1e3))
	l.res.info["kind_us"] = kind
}

// runtime reports the Go runtime's allocation and GC counts per
// request over the untraced phase, so trace records are not counted.
func (l *layers) runtime(p *phase, b0, b1 counters) {
	n := float64(p.attempted())
	l.set("go.allocs_per_req", ratio(float64(b1.mallocs-b0.mallocs), n))
	l.set("go.gc_per_kreq", ratio(1000*float64(b1.numGC-b0.numGC), n))
}

// tiers reads the row cache and shard client counters.
func (l *layers) tiers(c0, c1 counters) {
	reqs := float64(c1.st.Requests - c0.st.Requests)
	if l.w.opts.EmbCache.Enabled() {
		var hits, misses, evict int64
		for i, t := range c1.st.EmbCache {
			p := c0.st.EmbCache[i]
			hits += t.Hits - p.Hits
			misses += t.Misses - p.Misses
			evict += t.Evictions - p.Evictions
		}
		l.set("embcache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
		l.set("embcache.evictions_per_req", ratio(float64(evict), reqs))
	} else {
		l.absent("embcache.hit_ratio", "embcache.evictions_per_req")
	}
	if len(c1.shards) == 0 {
		l.absent("shard.rpcs_per_req", "shard.rpc_us.p50", "shard.rpc_us.p99", "shard.hedge_ratio", "shard.hedge_win_ratio", "shard.errors")
		return
	}
	var rpcs, hedges, wins, errs int64
	var lat obs.HistSnapshot
	for i, s := range c1.shards {
		p := c0.shards[i]
		rpcs += s.Requests - p.Requests
		hedges += s.Hedges - p.Hedges
		wins += s.HedgeWins - p.HedgeWins
		errs += s.Errors - p.Errors
		lat = addHist(lat, s.Latency.Sub(p.Latency))
	}
	l.set("shard.rpcs_per_req", ratio(float64(rpcs), reqs))
	l.set("shard.rpc_us.p50", lat.Quantile(0.5)/1e3)
	l.set("shard.rpc_us.p99", lat.Quantile(0.99)/1e3)
	l.set("shard.hedge_ratio", ratio(float64(hedges), float64(rpcs)))
	l.set("shard.hedge_win_ratio", ratio(float64(wins), float64(hedges)))
	l.set("shard.errors", float64(errs))
}

// trace compares the traced and untraced latency of the same phase
// kind, and checks that the layers' self times add up to the traced
// end-to-end mean: client (request span minus handler span), codec
// (handler span minus the engine's rank latency) and the engine's
// stages (validate, queue wait, batch formation, execute).
func (l *layers) trace(base, traced *phase, dump obs.Dump, c0, c1 counters, spans *spanLog) {
	l.set("trace.overhead_ratio", ratio(quantile(traced.latencies(), 0.5), quantile(base.latencies(), 0.5)))
	outer := "rank_into"
	if l.w.http {
		outer = "request"
	}
	var e2e float64
	reqs := spans.byName(outer)
	for _, s := range reqs {
		e2e += us(s.dur())
	}
	e2e /= float64(len(reqs))
	lat := c1.lat.Sub(c0.lat)
	rank := ratio(float64(lat.Sum), float64(lat.Count)) / 1e3
	var stages float64
	ts := l.traces(dump)
	for _, t := range ts {
		stages += t.StageSumUS()
	}
	stages /= float64(len(ts))
	self := map[string]float64{"engine.stages": stages}
	if l.w.http {
		var handler float64
		hs := spans.byName("handler")
		for _, s := range hs {
			handler += us(s.dur())
		}
		handler /= float64(len(hs))
		self["loadgen.client"] = e2e - handler
		self["engine.codec"] = handler - rank
		l.set("engine.codec_us.mean", handler-rank)
	} else {
		self["caller"] = e2e - rank
		l.absent("engine.codec_us.mean")
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	l.set("trace.coverage", ratio(sum, e2e))
	l.res.info["self_us_mean"] = self
	l.res.info["e2e_us_mean"] = e2e
	l.res.info["engine_rank_us_mean"] = rank
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func histDelta(a, b map[int]int64) map[int]int64 {
	out := map[int]int64{}
	for k, v := range b {
		if d := v - a[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

func addHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	if a.Counts == nil {
		return b
	}
	out := obs.HistSnapshot{Bounds: a.Bounds, Counts: make([]int64, len(a.Counts)), Sum: a.Sum + b.Sum, Count: a.Count + b.Count}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stamp records the host and run the numbers came from.
func stamp(workload string, seed uint64, traced bool) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":    workload,
		"seed":        seed,
		"traced":      traced,
		"arch":        runtime.GOARCH,
		"kernel_tier": tensor.KernelTier(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"git_commit":  commit,
	}
}

// stealMeter measures the share of CPU time the hypervisor gave to
// other guests (the steal column of /proc/stat) over a phase.
type stealMeter struct{ steal, total uint64 }

func startStealMeter() stealMeter {
	s, t := readSteal()
	return stealMeter{s, t}
}

func (m stealMeter) ratio() float64 {
	s, t := readSteal()
	return ratio(float64(s-m.steal), float64(t-m.total))
}

func readSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
