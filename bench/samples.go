package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile's rank
// before that percentile is reported: a p99 over 200 samples is the
// second-largest value, not a tail estimate.
const minBeyond = 10

// samples keeps every observation of one quantity (nanoseconds, bytes)
// in a preallocated slice, so percentiles are exact order statistics.
// The obs histograms the daemon exports answer with the upper bound of a
// log₂ bucket instead, which moves only in powers of two.
type samples struct {
	v      []int64
	sorted bool
}

func newSamples(capacity int) *samples { return &samples{v: make([]int64, 0, capacity)} }

func (s *samples) add(x int64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

// concat joins recorders into a new one.
func concat(ss ...*samples) *samples {
	var n int
	for _, s := range ss {
		n += s.n()
	}
	out := newSamples(n)
	for _, s := range ss {
		out.v = append(out.v, s.v...)
	}
	return out
}

func (s *samples) sum() int64 {
	var t int64
	for _, x := range s.v {
		t += x
	}
	return t
}

func (s *samples) sort() {
	if !s.sorted {
		slices.Sort(s.v)
		s.sorted = true
	}
}

// quantile returns the nearest-rank q-quantile — the smallest sample with
// at least q·n samples at or below it — and how many samples lie beyond
// that rank. An empty recorder returns (0, -1).
func (s *samples) quantile(q float64) (v int64, beyond int) {
	if len(s.v) == 0 {
		return 0, -1
	}
	s.sort()
	rank := int(math.Ceil(q * float64(len(s.v))))
	rank = min(max(rank, 1), len(s.v))
	return s.v[rank-1], len(s.v) - rank
}

func (s *samples) max() int64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	return s.v[len(s.v)-1]
}

// median is the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
