// Package gp implements Gaussian-process regression with an expected-
// improvement acquisition function over boolean vectors — the GPyOpt analog
// used in §4.2.3 to optimise the synthesis vocabulary. A GP models the
// success function s : {0,1}^13 -> N (programs synthesised per vocabulary);
// each evaluation refines the posterior, and the next vocabulary to try is
// the one maximising expected improvement.
//
// The dense linear algebra (Cholesky factorisation and triangular solves) is
// implemented here; instances are small (tens of observations).
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Kernel is a positive-definite covariance function over boolean vectors.
type Kernel func(a, b []bool) float64

// HammingRBF returns the radial-basis kernel over Hamming distance:
// k(a,b) = variance * exp(-d(a,b)/lengthscale). It is positive definite on
// the hypercube for any positive lengthscale.
func HammingRBF(variance, lengthscale float64) Kernel {
	return func(a, b []bool) float64 {
		d := 0
		for i := range a {
			if a[i] != b[i] {
				d++
			}
		}
		return variance * math.Exp(-float64(d)/lengthscale)
	}
}

// Regressor is a Gaussian-process posterior over observed points.
type Regressor struct {
	kernel Kernel
	noise  float64
	x      [][]bool
	alpha  []float64 // K^-1 (y - mean)
	chol   *cholesky
	mean   float64
}

// NewRegressor returns a GP with the given kernel and positive observation
// noise (added to the covariance diagonal; it also stabilises the
// factorisation).
func NewRegressor(k Kernel, noise float64) *Regressor {
	return &Regressor{kernel: k, noise: noise}
}

// Fit conditions the GP on observations (X, y).
func (r *Regressor) Fit(x [][]bool, y []float64) error {
	if len(x) != len(y) || len(x) == 0 {
		return errors.New("gp: need matching, non-empty observations")
	}
	n := len(x)
	r.x = x
	// Centre the observations; the prior mean is the sample mean.
	r.mean = 0
	for _, v := range y {
		r.mean += v
	}
	r.mean /= float64(n)

	k := newMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.kernel(x[i], x[j])
			if i == j {
				v += r.noise
			}
			k.set(i, j, v)
			k.set(j, i, v)
		}
	}
	chol, err := factorize(k)
	if err != nil {
		return fmt.Errorf("gp: %v", err)
	}
	r.chol = chol
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - r.mean
	}
	r.alpha = chol.solve(centered)
	return nil
}

// Predict returns the posterior mean and variance at x.
func (r *Regressor) Predict(x []bool) (mean, variance float64) {
	if r.chol == nil {
		return 0, 0
	}
	n := len(r.x)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = r.kernel(r.x[i], x)
	}
	mean = r.mean
	for i := 0; i < n; i++ {
		mean += ks[i] * r.alpha[i]
	}
	// variance = k(x,x) - ks^T K^-1 ks, via v = L^-1 ks.
	v := r.chol.solveLower(ks)
	variance = r.kernel(x, x)
	for i := 0; i < n; i++ {
		variance -= v[i] * v[i]
	}
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// ExpectedImprovement is the EI acquisition value for a maximisation problem
// at a point with posterior (mean, std) given the best observation so far.
func ExpectedImprovement(mean, std, best float64) float64 {
	if std <= 0 {
		if mean > best {
			return mean - best
		}
		return 0
	}
	z := (mean - best) / std
	return (mean-best)*normCDF(z) + std*normPDF(z)
}

func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

func normCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

// Sample records one optimizer evaluation.
type Sample struct {
	X []bool
	Y float64
}

// Options tune Maximize.
type Options struct {
	// Evaluations is the total budget of calls to the objective (the paper
	// uses 40).
	Evaluations int
	// Seed drives the deterministic pseudo-random choices.
	Seed int64
}

// The search's fixed settings: the random evaluations that seed the GP
// before the EI loop, its kernel's variance and lengthscale, and the
// observation noise (the objective is deterministic, but the GP needs a
// jitter).
const (
	initialRandom = 5
	kernelVar     = 1
	kernelScale   = 3
	obsNoise      = 1e-4
)

// Maximize runs Bayesian optimisation of f over {0,1}^dim and returns the
// best point found plus the full evaluation history. The domain is the full
// hypercube {0,1}^dim minus the all-false vector, enumerated (dim <= 20 keeps
// that tractable; the paper's domain is 2^13).
func Maximize(f func([]bool) float64, dim int, opts Options) (best []bool, bestY float64, history []Sample) {
	if opts.Evaluations <= 0 {
		opts.Evaluations = 40
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	kernel := HammingRBF(kernelVar, kernelScale)

	var candidates [][]bool
	for m := 1; m < 1<<uint(dim); m++ {
		v := make([]bool, dim)
		for i := 0; i < dim; i++ {
			v[i] = m>>uint(i)&1 == 1
		}
		candidates = append(candidates, v)
	}
	seen := map[string]bool{}
	key := func(v []bool) string {
		b := make([]byte, len(v))
		for i, x := range v {
			if x {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}
	evaluate := func(v []bool) {
		y := f(v)
		history = append(history, Sample{X: v, Y: y})
		seen[key(v)] = true
		if best == nil || y > bestY {
			best, bestY = v, y
		}
	}

	// Initial design: random distinct candidates.
	for len(history) < initialRandom && len(history) < opts.Evaluations {
		v := candidates[rng.Intn(len(candidates))]
		if seen[key(v)] {
			continue
		}
		evaluate(v)
	}

	for len(history) < opts.Evaluations {
		x := make([][]bool, len(history))
		y := make([]float64, len(history))
		for i, s := range history {
			x[i] = s.X
			y[i] = s.Y
		}
		reg := NewRegressor(kernel, obsNoise)
		var next []bool
		if err := reg.Fit(x, y); err == nil {
			bestEI := math.Inf(-1)
			for _, c := range candidates {
				if seen[key(c)] {
					continue
				}
				mean, variance := reg.Predict(c)
				ei := ExpectedImprovement(mean, math.Sqrt(variance), bestY)
				if ei > bestEI {
					bestEI, next = ei, c
				}
			}
		}
		if next == nil {
			// Fall back to random exploration (all candidates seen or a
			// degenerate fit).
			for tries := 0; tries < 1000; tries++ {
				c := candidates[rng.Intn(len(candidates))]
				if !seen[key(c)] {
					next = c
					break
				}
			}
			if next == nil {
				break
			}
		}
		evaluate(next)
	}
	return best, bestY, history
}

// ---- Dense symmetric linear algebra ----

type matrix struct {
	n int
	a []float64
}

func newMatrix(n int) *matrix { return &matrix{n: n, a: make([]float64, n*n)} }

func (m *matrix) at(i, j int) float64     { return m.a[i*m.n+j] }
func (m *matrix) set(i, j int, v float64) { m.a[i*m.n+j] = v }

// cholesky holds the lower-triangular factor L with A = L L^T.
type cholesky struct {
	n int
	l *matrix
}

// factorize computes the Cholesky factorisation of a symmetric positive-
// definite matrix.
func factorize(a *matrix) (*cholesky, error) {
	n := a.n
	l := newMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.at(i, j)
			for k := 0; k < j; k++ {
				sum -= l.at(i, k) * l.at(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, errors.New("matrix not positive definite")
				}
				l.set(i, i, math.Sqrt(sum))
			} else {
				l.set(i, j, sum/l.at(j, j))
			}
		}
	}
	return &cholesky{n: n, l: l}, nil
}

// solveLower solves L v = b.
func (c *cholesky) solveLower(b []float64) []float64 {
	v := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.l.at(i, k) * v[k]
		}
		v[i] = sum / c.l.at(i, i)
	}
	return v
}

// solve solves A x = b via the factorisation.
func (c *cholesky) solve(b []float64) []float64 {
	v := c.solveLower(b)
	x := make([]float64, c.n)
	for i := c.n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < c.n; k++ {
			sum -= c.l.at(k, i) * x[k]
		}
		x[i] = sum / c.l.at(i, i)
	}
	return x
}
