package main

import (
	"math"
	"sort"
)

// tailQuantile and tailMinBelow define the gated latency statistic: the
// 5th percentile, provided at least 15 samples sit at or below it. On this
// shared 2-vCPU host interference is additive and arrives in bursts, so
// the lower tail of many identical ops is the repeatable estimate of the
// code's own cost (README.md, "Noise evidence").
const (
	tailQuantile = 0.05
	tailMinBelow = 15
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one).
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// lowerTailRank is the 1-based rank lowerTail reads in a sample of n: the
// p05 rank, raised until minBelow samples sit at or below it, but never
// past the median — with too few samples for a tail the median is the
// honest answer.
func lowerTailRank(n, minBelow int) int {
	rank := int(math.Ceil(tailQuantile * float64(n)))
	if rank < minBelow {
		rank = minBelow
	}
	if median := (n + 1) / 2; rank > median {
		rank = median
	}
	return rank
}

// lowerTail returns the lower-tail statistic of xs (unsorted) with at
// least minBelow samples at or below it.
func lowerTail(xs []float64, minBelow int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[lowerTailRank(len(xs), minBelow)-1]
}

// median returns the nearest-rank median of xs (unsorted).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// minOf returns the smallest element of xs (0 for an empty slice).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// loadgenStats describes the gated arm's latency sample: the gated p05,
// context numbers, and the two homogeneity self-checks.
type loadgenStats struct {
	Ops int
	// P05 is the gated statistic: each segment's lower tail, then the
	// lower quartile over the segments (the 2nd smallest of 7). A segment
	// is one input drawn from the seed and one stretch of the host's
	// weather: taking a low order statistic over them keeps one lucky draw
	// from deciding the run, and lets up to five of seven segments sit in
	// an interference burst without moving it.
	P05        float64
	SegmentP05 []float64 // each segment's lower tail, in run order
	P50, P90   float64   // over all ops of the run
	OpsPerSec  float64
	// DriftRatio is the last third's lower tail over the first third's,
	// within a segment (median over segments): a workload whose ops get
	// slower or faster as it runs is not stationary, and its p05 would
	// depend on the run length.
	DriftRatio float64
	// P25OverP05, within a segment (median over segments), flags a bimodal
	// op mix: identical ops under one-sided noise keep the lower quartile
	// close to the lower tail.
	P25OverP05 float64
}

// summarize computes loadgenStats over the segments' latencies (ms, in
// issue order). The tailMinBelow samples are required of the run, not of
// each segment, so a segment's share is its ceiling fraction.
func summarize(segments [][]float64, elapsedSec float64) loadgenStats {
	var st loadgenStats
	minBelow := (tailMinBelow + len(segments) - 1) / max(1, len(segments))
	var all, p05s, drifts, p25s []float64
	for _, lat := range segments {
		all = append(all, lat...)
		p05 := lowerTail(lat, minBelow)
		p05s = append(p05s, p05)
		if p05 > 0 {
			p25s = append(p25s, quantile(sorted(lat), 0.25)/p05)
		}
		if third := len(lat) / 3; third > 0 {
			if first := lowerTail(lat[:third], minBelow); first > 0 {
				drifts = append(drifts, lowerTail(lat[len(lat)-third:], minBelow)/first)
			}
		}
	}
	asc := sorted(all)
	st.Ops, st.SegmentP05 = len(all), p05s
	st.P05, st.P50, st.P90 = quantile(sorted(p05s), 0.25), quantile(asc, 0.50), quantile(asc, 0.90)
	st.DriftRatio, st.P25OverP05 = median(drifts), median(p25s)
	if elapsedSec > 0 {
		st.OpsPerSec = float64(len(all)) / elapsedSec
	}
	return st
}

// spread is the calibration statistic of one workload × metric over the
// calibration sets.
type spread struct {
	Median float64 `json:"median"`
	// IQROverMedian is the distance between the first and third quartile
	// (Python's statistics.quantiles(n=4), the driver's own rule) as a
	// share of the median.
	IQROverMedian float64 `json:"iqr_over_median"`
	// MaxRelDev is the largest |value − median| ÷ median.
	MaxRelDev float64   `json:"max_rel_dev"`
	Values    []float64 `json:"values"`
}

// exclusiveQuartiles reproduces statistics.quantiles(values, n=4) with its
// default "exclusive" method: quartile i sits at position i·(n+1)/4 of the
// ascending data, interpolated linearly and clamped to the ends.
func exclusiveQuartiles(values []float64) (q1, q2, q3 float64) {
	asc := sorted(values)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0], asc[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadOf summarizes one metric's values across calibration sets.
func spreadOf(values []float64) spread {
	q1, q2, q3 := exclusiveQuartiles(values)
	sp := spread{Median: q2, Values: values}
	if q2 == 0 {
		return sp
	}
	sp.IQROverMedian = (q3 - q1) / q2
	for _, v := range values {
		if d := math.Abs(v-q2) / q2; d > sp.MaxRelDev {
			sp.MaxRelDev = d
		}
	}
	return sp
}
