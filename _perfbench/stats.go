package main

import (
	"math/bits"
	"runtime/metrics"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 1024 ns, then 512 sub-buckets per power of two (≤0.2% relative width).
// Recording is O(1) and allocation-free, so it can sit on the query path;
// quantiles interpolate inside the bucket, so a reported percentile keeps
// sub-nanosecond digits instead of snapping to a bucket edge.
type hist struct {
	counts []uint64
	n      uint64
	sum    time.Duration // total of the recorded durations
}

const (
	subBits    = 9
	exactLimit = 1 << (subBits + 1) // values below this get a bucket each
	maxShift   = 40
)

func newHist() *hist {
	return &hist{counts: make([]uint64, exactLimit+maxShift<<subBits)}
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < exactLimit {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (subBits + 1)
	if shift > maxShift {
		shift = maxShift
		v = (1<<(subBits+1) - 1) << shift
	}
	m := int(uint64(v) >> shift) // in [512, 1023]
	return exactLimit + (shift-1)<<subBits + m - 1<<subBits
}

// bucketRange returns a bucket's lower bound and width in nanoseconds.
func bucketRange(i int) (lo, width float64) {
	if i < exactLimit {
		return float64(i), 1
	}
	j := i - exactLimit
	shift := j>>subBits + 1
	m := j&(1<<subBits-1) + 1<<subBits
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
	h.sum += d
}

// quantile returns the q-quantile in nanoseconds (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, w := bucketRange(i)
			return lo + (target-cum)/float64(c)*w
		}
		cum = next
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// median of a small sample (setup repetitions, per-op layer sums).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// allocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func ms(d float64) float64 { return d / float64(time.Millisecond) }
func us(d float64) float64 { return d / float64(time.Microsecond) }

// ratio is num/den, or 0 for an empty base (the table prints the base
// beside every ratio, so an empty one is visible there).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
