package prima

import (
	"math"

	"uicwelfare/internal/stats"
)

// EpsPrime returns ε' = sqrt(2)·ε, the phase-1 accuracy parameter.
func EpsPrime(eps float64) float64 { return math.Sqrt2 * eps }

// LambdaPrime evaluates Eq. (7) of the paper: the phase-1 sampling bound
//
//	λ'_k = (2 + 2/3·ε')(log C(n,k) + ℓ'·log n + log log2 n)·n / ε'^2
//
// with natural logarithms. ellPrime is the effective confidence exponent
// ℓ' (EllPrime).
func LambdaPrime(n, k int, eps, ellPrime float64) float64 {
	epsp := EpsPrime(eps)
	logBinom := stats.LogNChooseK(n, k)
	loglog := math.Log(math.Log2(float64(n)))
	num := (2 + 2.0/3.0*epsp) * (logBinom + ellPrime*math.Log(float64(n)) + loglog) * float64(n)
	return num / (epsp * epsp)
}

// LambdaStar evaluates Eq. (8) of the paper: the phase-2 sampling bound
//
//	λ*_k = 2n·((1-1/e)·α + β_k)^2 · ε^-2
//	α    = sqrt(ℓ'·log n + log 2)
//	β_k  = sqrt((1-1/e)·(log C(n,k) + ℓ'·log n + log 2))
func LambdaStar(n, k int, eps, ellPrime float64) float64 {
	oneMinusInvE := 1 - 1/math.E
	alpha := math.Sqrt(ellPrime*math.Log(float64(n)) + math.Ln2)
	beta := math.Sqrt(oneMinusInvE * (stats.LogNChooseK(n, k) + ellPrime*math.Log(float64(n)) + math.Ln2))
	s := oneMinusInvE*alpha + beta
	return 2 * float64(n) * s * s / (eps * eps)
}

// EllPlusLog2 returns ℓ + log2/log n, the standard IMM adjustment that
// folds the union bound over its two phases into the failure probability.
func EllPlusLog2(ell float64, n int) float64 {
	return ell + math.Ln2/math.Log(float64(n))
}

// EllPrime returns line 2 of Algorithm 2, ℓ' = ℓ + log2/log n +
// log|b|/log n: EllPlusLog2 with the union bound over numBudgets
// budgets folded in as well. For one budget it is EllPlusLog2.
func EllPrime(ell float64, n, numBudgets int) float64 {
	return EllPlusLog2(ell, n) + math.Log(float64(numBudgets))/math.Log(float64(n))
}
