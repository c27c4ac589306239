package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// selfcheckSeconds is each self-check run's measured time.
const selfcheckSeconds = 3 * time.Second

// runSelfcheck runs every workload untraced and traced for a few
// seconds and checks that every metric BENCHMARK.json names is printed
// with its unit, that no request failed, that the traced run's layer
// self times cover its end-to-end mean within 5%, and that the
// untraced run left no engine traces.
func runSelfcheck(seed uint64) error {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range workloads(runtime.NumCPU()) {
		for _, traced := range []bool{false, true} {
			res, err := run(&w, seed, selfcheckSeconds, traced)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
			named := spec.EndToEnd
			if traced {
				named = spec.PerLayer
			}
			metrics := res.line()["metrics"].(map[string]any)
			if len(metrics) != len(named) {
				return fmt.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.name, traced, len(metrics), len(named))
			}
			for _, m := range named {
				got, ok := metrics[m.Name].(map[string]any)
				if !ok || got["unit"] != m.Unit {
					return fmt.Errorf("%s trace=%v: metric %s not printed with unit %s", w.name, traced, m.Name, m.Unit)
				}
			}
			if res.failed != 0 || !res.correct() {
				return fmt.Errorf("%s trace=%v: %d of %d requests failed: %v", w.name, traced, res.failed, res.attempted, res.errs)
			}
			if traced {
				if cov := res.metrics["trace.coverage"]; math.Abs(cov-1) > 0.05 {
					return fmt.Errorf("%s: trace.coverage %.4f is not within 5%% of 1", w.name, cov)
				}
			} else if res.tracesAdded != 0 {
				return fmt.Errorf("%s: untraced run recorded %d engine traces", w.name, res.tracesAdded)
			}
			fmt.Printf("selfcheck: %s trace=%v ok (%d requests)\n", w.name, traced, res.attempted)
		}
	}
	return nil
}
