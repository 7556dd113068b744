package main

import (
	"math"
	"sort"

	"weaver/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailRank returns the 1-based nearest-rank position reported for quantile
// q over n samples: the rank of q itself when at least minBeyond samples
// lie beyond it, otherwise the highest rank that keeps minBeyond beyond,
// but never below the median. It returns 0 for an empty sample.
func tailRank(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if med := (n + 1) / 2; rank < med {
		rank = med
	}
	if rank > n {
		rank = n
	}
	return rank
}

// dist is a sorted latency sample, in whatever unit its producer chose.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// median is the nearest-rank median (0 for an empty sample).
func (d dist) median() float64 { return d.at(tailRank(len(d), 0.5)) }

// tail is the q-quantile under the ten-beyond rule, with the quantile
// actually reported.
func (d dist) tail(q float64) (v, qEff float64) {
	r := tailRank(len(d), q)
	if r == 0 {
		return 0, 0
	}
	return d[r-1], float64(r) / float64(len(d))
}

// maxChunks bounds how many pieces chunkTail splits a sample into.
const maxChunks = 10

// chunkTail reports the q-quantile of samples, given in completion order,
// as the median of the q-quantiles of up to maxChunks contiguous chunks,
// each large enough for the ten-beyond rule to report q itself. One stall
// then moves one chunk's figure rather than the reported one. With too few
// samples for two such chunks it is the pooled tail. It also returns the
// number of chunks (1 when pooled) and the quantile reported.
func chunkTail(samples []float64, q float64) (v float64, chunks int, qEff float64) {
	per := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	k := min(maxChunks, len(samples)/per)
	if k < 2 {
		v, qEff = newDist(samples).tail(q)
		return v, 1, qEff
	}
	size := len(samples) / k
	tails := make([]float64, k)
	for i := range tails {
		end := (i + 1) * size
		if i == k-1 {
			end = len(samples)
		}
		tails[i], qEff = newDist(samples[i*size : end]).tail(q)
	}
	return newDist(tails).median(), k, qEff
}

func (d dist) at(rank int) float64 {
	if rank == 0 {
		return 0
	}
	return d[rank-1]
}

// ratio is num/den, with ok=false when the base is empty.
func ratio(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// histDelta is a histogram's change across a window: bucket counts of b
// minus those of a (a may be the zero snapshot when the histogram did not
// exist yet).
type histDelta struct {
	bounds []uint64
	counts []uint64
	n, sum uint64
}

func deltaHist(a, b obs.HistogramSnapshot) histDelta {
	h := histDelta{bounds: b.Bounds, counts: make([]uint64, len(b.Counts))}
	for i, c := range b.Counts {
		if i < len(a.Counts) {
			c -= a.Counts[i]
		}
		h.counts[i] = c
		h.n += c
	}
	h.sum = b.Sum - a.Sum
	return h
}

// quantile reports the upper bound of the bucket holding the nearest-rank
// q-quantile observation under the ten-beyond rule (raw units; the
// overflow bucket reports the last bound, a floor). ok is false when the
// window saw no observation.
func (h histDelta) quantile(q float64) (float64, bool) {
	rank := uint64(tailRank(int(h.n), q))
	if rank == 0 {
		return 0, false
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return float64(h.bounds[i]), true
			}
			break
		}
	}
	return float64(h.bounds[len(h.bounds)-1]), true
}

// mean is the average observation in raw units.
func (h histDelta) mean() (float64, bool) { return ratio(float64(h.sum), float64(h.n)) }
