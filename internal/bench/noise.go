package bench

import (
	"runtime"
	"sort"
)

// Noise-gated measurement for the compile figure's comparative claim. A
// speedup claim is only as good as the run-to-run stability of the numbers
// behind it, so the figure measures every rung several times and fails when
// the spread is too wide to support the comparison.

const (
	// noiseIters is the per-rung run count; the noise metric keeps the
	// middle three.
	noiseIters = 7
	// noiseGate is the maximum tolerated trimmed relative spread.
	noiseGate = 0.10
)

// noiseRung measures one rung noiseIters times and returns the best
// throughput plus the trimmed relative spread of the middle runs. One
// discarded warm-up at a quarter workload heats code and allocator paths;
// collecting between runs keeps one measurement's garbage from being
// charged to the next.
func noiseRung(total int, measure func(total int) (float64, error)) (best, noise float64, err error) {
	if _, err := measure(total / 4); err != nil {
		return 0, 0, err
	}
	runs := make([]float64, 0, noiseIters)
	for i := 0; i < noiseIters; i++ {
		runtime.GC()
		v, err := measure(total)
		if err != nil {
			return 0, 0, err
		}
		runs = append(runs, v)
	}
	sort.Float64s(runs)
	best = runs[len(runs)-1]
	// The noise statistic is the relative spread of the middle three runs:
	// outlier runs (scheduler preemption, a GC landing mid-measurement) are
	// trimmed symmetrically rather than widening the spread they caused.
	lo := (len(runs) - 3) / 2
	trimmed := runs[lo : lo+3]
	noise = (trimmed[2] - trimmed[0]) / trimmed[1]
	return best, noise, nil
}

// noiseRetry gives an over-gate rung one second chance with a doubled
// workload — longer runs average scheduler jitter out — keeping the quieter
// of the two measurements. A rung that stays noisy keeps its spread and the
// caller fails the figure.
func noiseRetry(best, noise float64, total int, measure func(total int) (float64, error)) (float64, float64) {
	if noise <= noiseGate {
		return best, noise
	}
	if b, n, err := noiseRung(total*2, measure); err == nil && n < noise {
		if b > best {
			best = b
		}
		noise = n
	}
	return best, noise
}
