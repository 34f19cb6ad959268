package obs

import (
	"math/bits"

	"nicbarrier/internal/sim"
)

// Histogram sub-bucket resolution: 16 sub-buckets per power-of-two
// octave gives a worst-case quantile error of ~3%, the HDR-histogram
// trade-off.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	// histBuckets covers the whole nonnegative int64 range: the first
	// histSub buckets are exact, then 16 sub-buckets per octave.
	histBuckets = histSub + (63-histSubBits+1)*histSub
)

// Histogram is a fixed-layout HDR-style latency histogram over
// sim.Duration values (nanoseconds). Observe is allocation-free after
// the first call (which allocates the bucket array once); quantiles
// resolve to the recorded bucket's midpoint. The zero value is ready
// to use.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    int64
	max    int64
}

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> (uint(msb) - histSubBits)) & (histSub - 1))
	return histSub + (msb-histSubBits)*histSub + sub
}

// histValue returns the midpoint of bucket i's value range.
func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	oct := (i-histSub)/histSub + histSubBits
	sub := int64((i - histSub) % histSub)
	low := int64(1)<<uint(oct) + sub<<uint(oct-histSubBits)
	return low + int64(1)<<uint(oct-histSubBits)/2
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(d sim.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports how many values were observed.
func (h *Histogram) Count() uint64 { return h.n }

// mean reports the exact mean of the observed values (the sum is kept
// exactly; only quantiles are bucketed).
func (h *Histogram) mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.n))
}

// quantile reports the q-quantile (q in [0,1]) as the midpoint of the
// bucket holding the nearest-rank value; the maximum is exact.
func (h *Histogram) quantile(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if q >= 1 {
		return sim.Duration(h.max)
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q*float64(h.n-1)) + 1
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histValue(i)
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}

// HistBin is one nonzero bucket of an exported histogram: the bucket's
// midpoint value in nanoseconds and its count. Midpoints round-trip
// exactly — re-recording a bucket's midpoint lands in the same bucket —
// so exported bins merge histograms with no quantile drift.
type HistBin struct {
	V int64  `json:"v"` // bucket midpoint, nanoseconds
	N uint64 `json:"n"` // observations in the bucket
}

// bins exports the histogram's nonzero buckets in value order; nil for
// an empty histogram.
func (h *Histogram) bins() []HistBin {
	if h.n == 0 {
		return nil
	}
	var out []HistBin
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, HistBin{V: histValue(i), N: c})
		}
	}
	return out
}

// addBin records n observations of bucket-midpoint v without touching
// the exact sum/max (the exported-snapshot merge restores those from
// its own exact fields).
func (h *Histogram) addBin(v int64, n uint64) {
	if n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	h.counts[histBucket(v)] += n
	h.n += n
}
