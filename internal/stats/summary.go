package stats

import "math"

// Summary accumulates a running mean and variance (Welford's algorithm)
// for a stream of Monte-Carlo observations.
type Summary struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Merge folds another summary into s, as if all of other's observations
// had been Added to s.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	d := other.mean - s.mean
	tot := n1 + n2
	s.mean += d * n2 / tot
	s.m2 += other.m2 + d*d*n1*n2/tot
	s.n += other.n
}

// MeanOf returns the arithmetic mean of xs, or 0 for an empty slice.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// VarianceOf returns the unbiased sample variance of xs.
func VarianceOf(xs []float64) float64 {
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Variance()
}

// LogNChooseK returns log(n choose k) computed with log-gamma, as needed
// by the IMM and PRIMA sample-size bounds.
func LogNChooseK(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}
