// Command perfbench is the repository's served-request benchmark. It
// builds the real engine in one process, drives it with one of three
// seeded workloads, checks every response against an independently
// built reference model, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as the last line of its
// output. See README.md for the workloads and metrics.
//
//	go run . --workload http-rmc1 --seed 1 --seconds 10 --trace 0
//	go run . --selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupRepeats = 5

// traceRing sizes the engine's trace ring in traced runs: large enough
// to keep every request of the traced phases.
const traceRing = 1 << 15

func main() {
	var (
		name      = flag.String("workload", "", "workload: http-rmc1, offline-rmc3 or sharded-rmc2-swap")
		seed      = flag.Uint64("seed", 1, "seed for the model weights, queries and arrivals")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		traced    = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		spansDir  = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
		selfcheck = flag.Bool("selfcheck", false, "run every workload briefly and check the benchmark's own invariants")
	)
	flag.Parse()
	if *selfcheck {
		if err := runSelfcheck(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("selfcheck: ok")
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(*name, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(&w, *seed, secs(*seconds), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *traced == 1 {
		path := fmt.Sprintf("%s/%s-seed%d.jsonl", *spansDir, w.name, *seed)
		if err := res.spans.write(path, res.t0); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		res.info["spans_file"] = path
	}
	printJSON(map[string]any{"stamp": stamp(w.name, *seed, *traced == 1)})
	printJSON(map[string]any{"info": res.info})
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	printJSON(res.line())
	if !res.correct() {
		os.Exit(1)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// result is one run's outcome.
type result struct {
	t0        time.Time
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
	info      map[string]any
	spans     *spanLog
	// tracesAdded is the engine trace count of the untraced rig; it
	// must stay 0.
	tracesAdded int64
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

// line is the final output line.
func (r *result) line() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for name, v := range r.metrics {
		ms[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	return map[string]any{"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

func (r *result) addPhase(p *phase) {
	r.attempted += p.attempted()
	r.failed += p.failed()
	if len(p.errs) > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d failed requests, first: %s", p.name, len(p.errs), p.errs[0]))
	}
}

// run executes one untraced or traced run of w.
func run(w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	res := &result{t0: time.Now(), metrics: map[string]float64{}, info: map[string]any{}}
	// Queries and reference scores come from a separately built model;
	// none of this is part of setup_s.
	ref, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	pool, err := w.makePool(seed, ref)
	if err != nil {
		return nil, err
	}
	freeMemory() // ref is garbage from here on
	rng := stats.NewRNG(seed ^ 0x2545f4914f6cdd1d)
	nproc := runtime.NumCPU()
	if !traced {
		return res, runUntraced(w, seed, dur, pool, rng, nproc, res)
	}
	return res, runTraced(w, seed, dur, pool, rng, nproc, res)
}

// runUntraced sets the workload up setupRepeats times, then measures
// the open-loop phase (if any) and the closed-loop phase.
func runUntraced(w *workload, seed uint64, dur time.Duration, pool []query, rng *stats.RNG, nproc int, res *result) error {
	var r *rig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
			freeMemory()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed, 0, &pool[0], nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	steal := startStealMeter()
	phases, swaps, err := drive(r, pool, dur, rng, nproc, nil)
	if err != nil {
		return err
	}
	tr, err := r.eng.Traces(modelName)
	if err != nil {
		return err
	}
	res.tracesAdded = tr.Added
	for _, p := range phases {
		res.addPhase(p)
	}
	// Latency and throughput come from the closed-loop phase, where a
	// stall of the host delays only the nproc requests in flight. The
	// SLA share comes from the first phase: the open loop at its fixed
	// rate where the workload has one.
	slaPhase, closed := phases[0], phases[len(phases)-1]
	lats := closed.latencies()
	windows := closed.throughputWindows(throughputWindows)
	sort.Float64s(setups)
	res.metrics["setup_s"] = setups[len(setups)/2]
	res.metrics["p50_ms"] = quantile(lats, 0.50)
	res.metrics["p99_ms"] = closed.windowedQuantile(0.99, latencyWindows)
	res.metrics["sla_ok_ratio"] = ratio(float64(slaPhase.slaOK()), float64(slaPhase.attempted()))
	res.metrics["items_per_s"] = median(windows)
	res.metrics["rss_peak_mb"] = peakRSSMB()
	res.info["setup_s_all"] = setups
	res.info["latency_samples"] = len(lats)
	res.info["p99_whole_phase_ms"] = quantile(lats, 0.99)
	res.info["items_per_s_windows"] = windows
	res.info["sla_phase"] = slaPhase.name
	res.info["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	res.info["engine_traces_added"] = tr.Added
	res.info["swaps"] = len(swaps)
	res.info["host_steal_ratio"] = steal.ratio()
	if slaPhase.open {
		ol, lags := slaPhase.latencies(), slaPhase.lagsMS()
		res.info["open_loop_ms"] = map[string]float64{"p50": quantile(ol, 0.5), "p95": quantile(ol, 0.95), "p99": quantile(ol, 0.99)}
		res.info["lag_ms"] = map[string]float64{"p50": quantile(lags, 0.5), "p99": quantile(lags, 0.99), "max": quantile(lags, 1)}
		res.info["open_loop_valid"] = openLoopValid(phases)
	}
	return nil
}

// throughputWindows and latencyWindows are the numbers of equal
// windows items_per_s and p99_ms take their median over, so a short
// stall of the host moves them less.
const (
	throughputWindows = 10
	latencyWindows    = 5
)

// drive runs the workload's phases on r: an open-loop phase at the
// fixed rate for two thirds of dur and a closed-loop phase for the
// rest, or one closed-loop phase for a workload without arrivals.
// Swaps run beside every phase.
func drive(r *rig, pool []query, dur time.Duration, rng *stats.RNG, nproc int, spans *spanLog) ([]*phase, []time.Duration, error) {
	lr := &loadRun{r: r, pool: pool, spans: spans}
	stop := make(chan struct{})
	var sw *swapper
	if r.w.swapEvery > 0 {
		clone, err := r.model.Clone()
		if err != nil {
			return nil, nil, err
		}
		sw = startSwapper(r, [2]*model.Model{clone, r.model}, r.w.swapEvery, spans, stop)
	}
	var phases []*phase
	if r.w.openRate > 0 {
		phases = append(phases, lr.openLoop("open", dur/2, nproc, rng.Split()))
		phases = append(phases, lr.closedLoop("closed", dur/2, r.w.clients, rng.Split()))
	} else {
		phases = append(phases, lr.closedLoop("closed", dur, r.w.clients, rng.Split()))
	}
	var swaps []time.Duration
	if sw != nil {
		close(stop)
		sw.wait()
		if len(sw.errs) > 0 {
			return nil, nil, fmt.Errorf("swap: %s", sw.errs[0])
		}
		swaps = sw.times
	}
	return phases, swaps, nil
}

// openLoopValid reports whether the generator kept to its schedule:
// its p99 lateness stays under half the SLA.
func openLoopValid(phases []*phase) bool {
	for _, p := range phases {
		if !p.open {
			continue
		}
		if quantile(p.lagsMS(), 0.99) > ms(p.sla)/2 {
			return false
		}
	}
	return true
}

// freeMemory returns garbage from a previous set-up to the OS, so one
// set-up's peak does not stack on the previous one's.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
