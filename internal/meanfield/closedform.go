package meanfield

import (
	"math"

	"repro/internal/numeric"
)

// This file holds the fixed points the paper derives in closed form,
// re-derived from the balance equations (the printed formulas in the
// available text are OCR-damaged in places; every formula here is verified
// against the numeric fixed point by the property tests).
//
// Simple WS (§2.2). At the fixed point π₀ = 1 and π₁ = λ (task completion
// rate equals arrival rate). Equation (2) with ds₁/dt = 0 gives
//
//	0 = λ(1 − λ) − (λ − π₂)(1 − π₂)  ⇒  π₂² − (1+λ)π₂ + λ² = 0
//	⇒ π₂ = ((1+λ) − √(1 + 2λ − 3λ²)) / 2,
//
// and induction on equation (3) gives geometric tails with ratio
// β = λ/(1 + λ − π₂):
//
//	π_i = π₂ β^{i−2},  i ≥ 2.
//
// Threshold stealing (§2.3). Equation (5) at the fixed point yields the
// linear recurrence π_{i+1} = (1+λ)π_i − λπ_{i−1} (2 ≤ i ≤ T−1), whose
// general solution is π_i = A + Bλ^i. Combining π₁ = λ with equation (4)
// pins B = 1/(1 − π_T), so
//
//	π_i = λ + (λ^i − λ)/(1 − π_T),  1 ≤ i ≤ T,
//
// and self-consistency at i = T gives π_T² − (1+λ)π_T + λ^T = 0:
//
//	π_T = ((1+λ) − √((1+λ)² − 4λ^T)) / 2.
//
// For i ≥ T the tails are again geometric with ratio λ/(1 + λ − π₂).
// T = 2 recovers the simple-WS formulas.

// SimpleWSFixedPoint holds the closed-form equilibrium of simple WS.
type SimpleWSFixedPoint struct {
	Lambda float64
	Pi2    float64 // fraction of processors with ≥ 2 tasks
	Beta   float64 // geometric tail ratio λ/(1+λ−π₂)
}

// SolveSimpleWS returns the closed-form fixed point of the simple
// work-stealing model at arrival rate λ.
func SolveSimpleWS(lambda float64) SimpleWSFixedPoint {
	checkLambda(lambda)
	pi2 := ((1 + lambda) - math.Sqrt(1+2*lambda-3*lambda*lambda)) / 2
	return SimpleWSFixedPoint{
		Lambda: lambda,
		Pi2:    pi2,
		Beta:   lambda / (1 + lambda - pi2),
	}
}

// Pi returns π_i, the equilibrium fraction of processors with at least i
// tasks.
func (f SimpleWSFixedPoint) Pi(i int) float64 {
	switch {
	case i <= 0:
		return 1
	case i == 1:
		return f.Lambda
	default:
		return f.Pi2 * math.Pow(f.Beta, float64(i-2))
	}
}

// MeanTasks returns the expected tasks per processor:
// λ + π₂/(1−β).
func (f SimpleWSFixedPoint) MeanTasks() float64 {
	return f.Lambda + numeric.GeomTailSum(f.Pi2, f.Beta)
}

// SojournTime returns the expected time in system E[L]/λ (Little's law).
// At λ = 1/2 this is the golden ratio φ ≈ 1.618, the paper's first table
// entry.
func (f SimpleWSFixedPoint) SojournTime() float64 {
	return f.MeanTasks() / f.Lambda
}

// ThresholdFixedPoint holds the closed-form equilibrium of the threshold
// model.
type ThresholdFixedPoint struct {
	Lambda float64
	T      int
	PiT    float64 // fraction with ≥ T tasks
	Pi2    float64 // fraction with ≥ 2 tasks
	Beta   float64 // geometric ratio above the threshold
}

// SolveThreshold returns the closed-form fixed point of the threshold model
// with arrival rate λ and threshold T ≥ 2.
func SolveThreshold(lambda float64, t int) ThresholdFixedPoint {
	checkLambda(lambda)
	if t < 2 {
		panic("meanfield: SolveThreshold needs T >= 2")
	}
	onePlus := 1 + lambda
	piT := (onePlus - math.Sqrt(onePlus*onePlus-4*math.Pow(lambda, float64(t)))) / 2
	f := ThresholdFixedPoint{Lambda: lambda, T: t, PiT: piT}
	f.Pi2 = f.piBelow(2)
	f.Beta = lambda / (1 + lambda - f.Pi2)
	return f
}

// piBelow evaluates π_i = λ + (λ^i − λ)/(1 − π_T) for 1 ≤ i ≤ T.
func (f ThresholdFixedPoint) piBelow(i int) float64 {
	li := math.Pow(f.Lambda, float64(i))
	return f.Lambda + (li-f.Lambda)/(1-f.PiT)
}

// Pi returns π_i for any i ≥ 0.
func (f ThresholdFixedPoint) Pi(i int) float64 {
	switch {
	case i <= 0:
		return 1
	case i <= f.T:
		return f.piBelow(i)
	default:
		return f.PiT * math.Pow(f.Beta, float64(i-f.T))
	}
}

// MeanTasks returns the expected tasks per processor:
// Σ_{i=1}^{T−1} π_i + π_T/(1−β).
func (f ThresholdFixedPoint) MeanTasks() float64 {
	var sum numeric.KahanSum
	for i := 1; i < f.T; i++ {
		sum.Add(f.piBelow(i))
	}
	sum.Add(numeric.GeomTailSum(f.PiT, f.Beta))
	return sum.Sum()
}

// SojournTime returns the expected time in system.
func (f ThresholdFixedPoint) SojournTime() float64 {
	return f.MeanTasks() / f.Lambda
}

// MM1SojournTime returns the no-stealing expected time in system 1/(1−λ),
// the classic M/M/1 result the paper uses as its baseline.
func MM1SojournTime(lambda float64) float64 {
	checkLambda(lambda)
	return 1 / (1 - lambda)
}

// MM1Pi returns the no-stealing equilibrium tail π_i = λ^i.
func MM1Pi(lambda float64, i int) float64 {
	if i <= 0 {
		return 1
	}
	return math.Pow(lambda, float64(i))
}

// RepeatedTailRatio returns the geometric ratio of the equilibrium tails of
// the repeated-steal-attempts model above its threshold (§2.5):
//
//	λ / (1 + r(1−λ) + λ − π₂).
//
// π₂ must come from the numeric fixed point; the function is exposed so
// tests can verify the claimed decay rate against the solved tails.
func RepeatedTailRatio(lambda, r, pi2 float64) float64 {
	return lambda / (1 + r*(1-lambda) + lambda - pi2)
}

// StealTailRatio returns λ/(1+λ−π₂), the apparent-service-rate tail ratio
// of §2.2's intuition: above the stealing threshold a queue is drained at
// rate 1 plus the steal rate λ − π₂, so tails fall like λ/μ′.
func StealTailRatio(lambda, pi2 float64) float64 {
	return lambda / (1 + lambda - pi2)
}
