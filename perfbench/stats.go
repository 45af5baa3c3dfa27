package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p50 needs 20 samples and p90
// needs 100.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the samples
// and whether it may be reported under the percentile rule. A failed
// operation enters as +Inf, so it misses every latency limit.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], n-(idx+1) >= minBeyond
}

// median is the middle sample (the mean of the two middle ones for an even
// count); it carries no percentile-rule check and is used for set-up times
// and probe repetitions, not for reported operation latencies.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean, 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// opCount tallies operations: every attempt, and those that failed or were
// refused. A refused HTTP request and a job that ends failed both count.
type opCount struct {
	attempted int
	failed    int
}

func (c *opCount) ok()   { c.attempted++ }
func (c *opCount) fail() { c.attempted++; c.failed++ }

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
}

// failedRatio is failed or refused operations over operations attempted.
func (c opCount) failedRatio() float64 {
	return ratio(float64(c.failed), float64(c.attempted))
}
