package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one request share its id; the handler span's parent
// is the request span.
type span struct {
	Name    string  `json:"name"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`

	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) byName(name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines, times relative to t0.
func (l *spanLog) write(path string, t0 time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		s.StartUS = float64(s.start.Sub(t0).Nanoseconds()) / 1e3
		s.EndUS = float64(s.end.Sub(t0).Nanoseconds()) / 1e3
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// outcome is one request as the load generator saw it.
type outcome struct {
	start, end time.Time // open loop: start is the due time
	items      int
	ok         bool
}

// tally is one sender's record of a phase.
type tally struct {
	reqs []outcome
	lags []time.Duration // open loop: generator lateness
	errs []string
}

func (t *tally) add(o outcome, err error) {
	t.reqs = append(t.reqs, o)
	if err != nil {
		t.errs = append(t.errs, err.Error())
	}
}

// phase is the record of one load phase.
type phase struct {
	name       string
	open       bool
	sla        time.Duration
	start, end time.Time
	tally
}

// merge folds the senders' tallies into the phase.
func (p *phase) merge(ts []tally) {
	for _, t := range ts {
		p.reqs = append(p.reqs, t.reqs...)
		p.lags = append(p.lags, t.lags...)
		p.errs = append(p.errs, t.errs...)
	}
}

func (p *phase) attempted() int { return len(p.reqs) }

func (p *phase) failed() int {
	n := 0
	for _, r := range p.reqs {
		if !r.ok {
			n++
		}
	}
	return n
}

// latencies returns the OK requests' latencies in ms, sorted.
func (p *phase) latencies() []float64 {
	out := make([]float64, 0, len(p.reqs))
	for _, r := range p.reqs {
		if r.ok {
			out = append(out, ms(r.end.Sub(r.start)))
		}
	}
	sort.Float64s(out)
	return out
}

// windowedQuantile returns the median over n equal windows of each
// window's q-quantile latency, windows keyed by request start.
func (p *phase) windowedQuantile(q float64, n int) float64 {
	w := p.end.Sub(p.start) / time.Duration(n)
	per := make([][]float64, n)
	for _, r := range p.reqs {
		i := int(r.start.Sub(p.start) / w)
		if r.ok && i >= 0 && i < n {
			per[i] = append(per[i], ms(r.end.Sub(r.start)))
		}
	}
	qs := make([]float64, n)
	for i, xs := range per {
		sort.Float64s(xs)
		qs[i] = quantile(xs, q)
	}
	return median(qs)
}

// lagsMS returns the generator's lateness in ms, sorted.
func (p *phase) lagsMS() []float64 {
	out := make([]float64, len(p.lags))
	for i, l := range p.lags {
		out[i] = ms(l)
	}
	sort.Float64s(out)
	return out
}

// slaOK counts requests that came back correct within the SLA.
func (p *phase) slaOK() int {
	n := 0
	for _, r := range p.reqs {
		if r.ok && r.end.Sub(r.start) <= p.sla {
			n++
		}
	}
	return n
}

// throughputWindows returns items/s in each of n equal windows of the
// phase. Each request's items are spread over its own interval, so a
// long call counts in every window it overlaps.
func (p *phase) throughputWindows(n int) []float64 {
	span := p.end.Sub(p.start)
	w := span / time.Duration(n)
	items := make([]float64, n)
	for _, r := range p.reqs {
		if !r.ok {
			continue
		}
		d := r.end.Sub(r.start)
		for i := 0; i < n; i++ {
			ws := p.start.Add(time.Duration(i) * w)
			we := ws.Add(w)
			lo, hi := maxTime(ws, r.start), minTime(we, r.end)
			if hi.After(lo) {
				items[i] += float64(r.items) * float64(hi.Sub(lo)) / float64(d)
			}
		}
	}
	for i := range items {
		items[i] /= w.Seconds()
	}
	return items
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// nextID numbers requests across every phase of a run.
var nextID atomic.Int64

// loadRun holds what every phase of a run shares.
type loadRun struct {
	r     *rig
	pool  []query
	spans *spanLog // nil when the phase is untraced
}

// openLoop sends Poisson arrivals at the workload's rate for dur from
// senders goroutines, each with one connection. A request is timed from
// when it was due, so a stall also counts against the requests queued
// behind it.
func (lr *loadRun) openLoop(name string, dur time.Duration, senders int, rng *stats.RNG) *phase {
	w := lr.r.w
	n := int(w.openRate * dur.Seconds())
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / w.openRate
		due[i] = time.Duration(t * float64(time.Second))
	}
	// Cycling through the pool in seeded order keeps the offered mix of
	// query sizes the same for every seed.
	order := rng.Perm(len(lr.pool))
	p := &phase{name: name, open: true, sla: w.sla}
	var next atomic.Int64
	tallies := make([]tally, senders)
	var wg sync.WaitGroup
	p.start = time.Now().Add(2 * time.Millisecond)
	for s := range tallies {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			c := lr.r.newCaller()
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				taken := time.Now()
				dueAt := p.start.Add(due[i])
				if d := time.Until(dueAt); d > 0 {
					time.Sleep(d)
				}
				// A sender still busy at the due time is the system's
				// backlog, not the generator's lateness.
				tl.lags = append(tl.lags, time.Since(maxTime(dueAt, taken)))
				tl.add(lr.send(c, &lr.pool[order[i%len(order)]], dueAt))
			}
		}(&tallies[s])
	}
	wg.Wait()
	p.end = time.Now()
	p.merge(tallies)
	return p
}

// closedLoop runs clients callers, each sending its next query as soon
// as the previous one returns, for dur.
func (lr *loadRun) closedLoop(name string, dur time.Duration, clients int, rng *stats.RNG) *phase {
	w := lr.r.w
	order := rng.Perm(len(lr.pool))
	p := &phase{name: name, sla: w.sla}
	var next atomic.Int64
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	p.start = time.Now()
	stop := p.start.Add(dur)
	for s := range tallies {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			c := lr.r.newCaller()
			defer c.close()
			for time.Now().Before(stop) {
				i := int(next.Add(1)-1) % len(order)
				tl.add(lr.send(c, &lr.pool[order[i]], time.Now()))
			}
		}(&tallies[s])
	}
	wg.Wait()
	p.end = time.Now()
	p.merge(tallies)
	return p
}

// send issues one query timed from start and checks its scores.
func (lr *loadRun) send(c *caller, q *query, start time.Time) (outcome, error) {
	id := nextID.Add(1)
	match, err := lr.r.do(c, q, id)
	o := outcome{start: start, end: time.Now(), items: q.batch, ok: err == nil && match}
	if err == nil && !match {
		err = fmt.Errorf("request %d: scores differ from the reference model", id)
	}
	if lr.spans != nil {
		name := "request"
		if !lr.r.w.http {
			name = "rank_into"
		}
		lr.spans.add(span{Name: name, ID: id, Parent: -1, start: o.start, end: o.end})
	}
	return o, err
}

// swapper calls Engine.Swap every period, alternating between two
// bit-identical model instances, until stop is closed.
type swapper struct {
	times []time.Duration
	errs  []string
	done  chan struct{}
}

func startSwapper(r *rig, insts [2]*model.Model, period time.Duration, spans *spanLog, stop <-chan struct{}) *swapper {
	sw := &swapper{done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			err := r.eng.Swap(modelName, insts[k%2])
			t1 := time.Now()
			if err != nil {
				sw.errs = append(sw.errs, err.Error())
				continue
			}
			sw.times = append(sw.times, t1.Sub(t0))
			if spans != nil {
				spans.add(span{Name: "swap", ID: nextID.Add(1), Parent: -1, start: t0, end: t1})
			}
		}
	}()
	return sw
}

func (sw *swapper) wait() { <-sw.done }
