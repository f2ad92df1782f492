package battery

import (
	"fmt"
	"math"
)

// CycleStats is the two-pass reference for SoCStats: SoCdev and SoCavg
// (Eqs. 16–17) of a uniformly sampled SoC trace (percent), the mean
// first and the deviations from it second.
func CycleStats(socTrace []float64) (dev, avg float64, err error) {
	if len(socTrace) < 2 {
		return 0, 0, fmt.Errorf("battery: SoC trace needs ≥ 2 samples, got %d", len(socTrace))
	}
	var sum float64
	for _, s := range socTrace {
		sum += s
	}
	avg = sum / float64(len(socTrace))
	var varSum float64
	for _, s := range socTrace {
		d := s - avg
		varSum += d * d
	}
	dev = math.Sqrt(varSum / float64(len(socTrace)))
	return dev, avg, nil
}

// accumulate feeds a trace through a SoCStats.
func accumulate(trace []float64) *SoCStats {
	var s SoCStats
	for _, v := range trace {
		s.Add(v)
	}
	return &s
}
