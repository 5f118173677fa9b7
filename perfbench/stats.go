package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of the sorted samples by the
// nearest-rank rule, or 0 when there are none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one timed operation: when it was due (or started, for closed
// loops) and how long it took from then.
type sample struct {
	at  time.Duration // offset from the phase start
	lat time.Duration
}

// latencySummary splits a phase into equal slices by time and reports
// the median over the slices of each slice's p50, p99 and rate. Every
// slice counts, so a change that slows most of the phase, such as
// stalls behind merges or slower reads while one runs, moves the
// figures. The benchmark runs on 2-vCPU virtual machines whose host
// takes CPU time away in bursts of seconds. On serve-cached the mean of
// the slices' p99s read 1.2-1.4 ms in two runs of ten and 0.72-0.88 ms
// in the other eight; the median moves only when more than half of the
// slices are hit. Over 22 runs of ingest-mixed's closed-loop writer, the
// median of the slices' rates spread half as far as the phase's work
// over its length.
type latencySummary struct {
	P50, P99 float64 // microseconds
	PerSec   float64
	N        int // samples in the phase
	Slices   int // slices the figures are taken over
}

// Phases are cut into at most maxSlices slices of at least
// minSliceSamples samples, so each slice's p99 has at least ten samples
// beyond it.
const (
	maxSlices       = 20
	minSliceSamples = 1000
)

func sliceCountFor(n int) int { return min(max(n/minSliceSamples, 1), maxSlices) }

// sliceOf returns the slice of a phase of length span that offset at
// falls in; offsets past the end count in the last slice.
func sliceOf(at, span time.Duration, slices int) int {
	i := int(int64(at) * int64(slices) / int64(span))
	return min(max(i, 0), slices-1)
}

// summarize reports the phase's latency figures over the slices marked
// valid; with valid nil, every slice counts and the slice count follows
// the sample count.
func summarize(samples []sample, span time.Duration, valid []bool) latencySummary {
	out := latencySummary{N: len(samples)}
	if len(samples) == 0 || span <= 0 {
		return out
	}
	slices := len(valid)
	if valid == nil {
		slices = sliceCountFor(len(samples))
	}
	buckets := make([][]sample, slices)
	for _, s := range samples {
		i := sliceOf(s.at, span, slices)
		buckets[i] = append(buckets[i], s)
	}
	var p50s, p99s, rates []float64
	for i, b := range buckets {
		if len(b) == 0 || (valid != nil && !valid[i]) {
			continue
		}
		out.Slices++
		lat := make([]time.Duration, len(b))
		first, last := b[0].at, b[0].at
		for j, s := range b {
			lat[j] = s.lat
			first, last = min(first, s.at), max(last, s.at)
		}
		sortDurations(lat)
		p50s = append(p50s, us(quantile(lat, 0.50)))
		p99s = append(p99s, us(quantile(lat, 0.99)))
		// A slice's rate is its operations over the time between the
		// first and the last of them starting.
		if last > first {
			rates = append(rates, float64(len(b)-1)/(last-first).Seconds())
		}
	}
	out.P50, out.P99, out.PerSec = median(p50s), median(p99s), median(rates)
	return out
}

// p50us returns the median of durations in microseconds.
func p50us(d []time.Duration) float64 {
	return us(quantile(sortDurations(append([]time.Duration(nil), d...)), 0.50))
}

// pus returns the q-quantile of durations in microseconds.
func pus(d []time.Duration, q float64) float64 {
	return us(quantile(sortDurations(append([]time.Duration(nil), d...)), q))
}

// medianSeconds returns the median of durations in seconds.
func medianSeconds(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = x.Seconds()
	}
	return median(v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
