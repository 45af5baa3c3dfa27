package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPercentileRuleNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{21, 0.5, 11, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples must not be reportable")
	}
}

func TestFailedOperationMissesEveryLatencyLimit(t *testing.T) {
	// 80 fast operations and 20 failures: the failures enter as +Inf, so
	// p90 is a miss while p50 is still a measured latency.
	var samples []float64
	for i := 0; i < 80; i++ {
		samples = append(samples, 0.01)
	}
	for i := 0; i < 20; i++ {
		samples = append(samples, math.Inf(1))
	}
	if p50, ok := percentile(samples, 0.5); !ok || p50 != 0.01 {
		t.Errorf("p50 = %v, %v; want 0.01, true", p50, ok)
	}
	if p90, ok := percentile(samples, 0.9); !ok || !math.IsInf(p90, 1) {
		t.Errorf("p90 = %v, %v; want +Inf, true", p90, ok)
	}
}

func TestFailedRatioCountsRefusedAndFailed(t *testing.T) {
	var c opCount
	for i := 0; i < 7; i++ {
		c.ok()
	}
	c.fail() // a refused submission
	c.fail() // a job that ended failed
	var other opCount
	other.ok()
	c.add(other)
	if c.attempted != 10 || c.failed != 2 {
		t.Fatalf("counts = %d attempted, %d failed; want 10, 2", c.attempted, c.failed)
	}
	if got := c.failedRatio(); got != 0.2 {
		t.Errorf("failedRatio = %v, want 0.2", got)
	}
	if got := (opCount{}).failedRatio(); got != 0 {
		t.Errorf("failedRatio with nothing attempted = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestResultLineHasExactlyFourKeys(t *testing.T) {
	r := result{ops: opCount{attempted: 3, failed: 1}, defs: endToEnd, metrics: map[string]float64{}}
	for i, d := range endToEnd {
		r.metrics[d.name] = float64(i) + 0.5
	}
	line, err := r.line(true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result line keys: %s", line)
	}
	delete(r.metrics, "setup_s")
	if _, err := r.line(true); err == nil {
		t.Error("a missing metric must be an error, not a silent omission")
	}
	r.metrics["setup_s"] = math.NaN()
	if _, err := r.line(true); err == nil {
		t.Error("a NaN metric must be an error")
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in perfbench", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q, perfbench has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in perfbench", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s], perfbench has %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
	}
}
