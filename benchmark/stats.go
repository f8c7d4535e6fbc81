package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples. It refuses a percentile with fewer than ten samples beyond it:
// with so thin a tail the figure is the position of one or two outliers,
// not a property of the distribution.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.2f of %d samples is undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("percentile %.2f of %d samples has only %d samples beyond it (need 10)", q, n, beyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mad returns the median absolute deviation from the median.
func mad(vals []float64) float64 {
	m := median(vals)
	dev := make([]float64, len(vals))
	for i, v := range vals {
		dev[i] = math.Abs(v - m)
	}
	return median(dev)
}
