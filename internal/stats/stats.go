// Package stats provides the small statistical toolkit the experiment
// harness uses to report multi-seed results: streaming mean/variance
// accumulation (Welford) and Student-t confidence intervals, with no
// dependencies beyond the standard library.
package stats

import (
	"fmt"
	"math"
)

// Acc accumulates samples streaming-fashion.
type Acc struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the sample count.
func (a *Acc) N() int { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Acc) Mean() float64 { return a.mean }

// Min returns the smallest sample.
func (a *Acc) Min() float64 { return a.min }

// Max returns the largest sample.
func (a *Acc) Max() float64 { return a.max }

// Var returns the unbiased sample variance (0 for n < 2).
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Acc) Std() float64 { return math.Sqrt(a.Var()) }

// SE returns the standard error of the mean.
func (a *Acc) SE() float64 {
	if a.n < 1 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of the 95% Student-t confidence interval
// for the mean (0 for n < 2).
func (a *Acc) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return tCrit95(a.n-1) * a.SE()
}

// String formats "mean ±ci95 (n=N)".
func (a *Acc) String() string {
	return fmt.Sprintf("%.4g ±%.2g (n=%d)", a.Mean(), a.CI95(), a.n)
}

// tCrit95 returns the two-sided 95% critical value of Student's t with
// df degrees of freedom. Values for small df are tabulated; beyond the
// table the normal approximation is used (error < 0.3%).
func tCrit95(df int) float64 {
	table := []float64{
		0, // df=0 unused
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	// Interpolate towards the normal quantile 1.960.
	return 1.960 + 2.5/float64(df)
}
