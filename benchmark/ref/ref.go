// Package ref holds the benchmark's independent references: plain-Go
// loops and closed forms that compute what each workload's batches must
// produce. It imports nothing from the repository, so an expected value
// can never come from the pipeline under test.
package ref

import "math"

// Heat2D advances an n×n row-major grid by the given number of Jacobi
// sweeps, in place. Each interior point becomes
// ((((c+north)+south)+west)+east)*0.2 computed from the previous sweep's
// grid — the operation order the stencil-sweep workload records, so the
// result is bit-equal to a correct pipeline. The boundary never changes.
func Heat2D(grid []float64, n, sweeps int) {
	next := make([]float64, len(grid))
	copy(next, grid)
	for s := 0; s < sweeps; s++ {
		for i := 1; i < n-1; i++ {
			row, up, down := grid[i*n:(i+1)*n], grid[(i-1)*n:i*n], grid[(i+1)*n:(i+2)*n]
			out := next[i*n : (i+1)*n]
			for j := 1; j < n-1; j++ {
				out[j] = ((((row[j] + up[j]) + down[j]) + row[j-1]) + row[j+1]) * 0.2
			}
		}
		grid, next = next, grid
	}
	if sweeps%2 == 1 {
		// An odd count leaves the result in the scratch slice; the caller
		// holds the other one.
		copy(next, grid)
	}
}

// Jacobi1D advances u by the given number of sweeps of
// u[i] ← ((u[i-1]+u[i+1])+f[i])*0.5 over the interior points, in place,
// each sweep reading only the previous sweep's values.
func Jacobi1D(u, f []float64, sweeps int) {
	n := len(u)
	next := make([]float64, n)
	copy(next, u)
	for s := 0; s < sweeps; s++ {
		for i := 1; i < n-1; i++ {
			next[i] = ((u[i-1] + u[i+1]) + f[i]) * 0.5
		}
		u, next = next, u
	}
	if sweeps%2 == 1 {
		copy(next, u)
	}
}

// Black-Scholes parameters shared by the fused-chain workload and its
// reference: strike 100, r = 2 %, sigma = 30 %, one year to expiry.
const (
	Strike = 100.0
	Rate   = 0.02
	Sigma  = 0.3
)

// cnd is the tanh approximation of the standard normal CDF the workload
// records: Φ(x) ≈ ½(1 + tanh(√(2/π)(x + 0.044715x³))).
func cnd(x float64) float64 {
	return 0.5 * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(x+0.044715*x*x*x)))
}

// BlackScholesMean returns the mean call price over the spot prices,
// summed with Kahan compensation so the reference is at least as
// accurate as any reduction order the pipeline may choose.
func BlackScholesMean(spot []float64) float64 {
	var sum, comp float64
	for _, s := range spot {
		d1 := (math.Log(s/Strike) + Rate + Sigma*Sigma/2) / Sigma
		d2 := d1 - Sigma
		price := s*cnd(d1) - Strike*math.Exp(-Rate)*cnd(d2)
		y := price - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(spot))
}

// SumPow returns Σ x[i]^e with Kahan compensation.
func SumPow(x []float64, e float64) float64 {
	var sum, comp float64
	for _, v := range x {
		y := math.Pow(v, e) - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Residual returns max|A·x − b| over every entry, relative to max|b|,
// for a row-major m×m matrix a and m×k right-hand sides b and solutions
// x. It is the acceptance test for a linear solve: no factorization of
// its own, only the defining equation.
func Residual(a, x, b []float64, m, k int) float64 {
	var worst, scale float64
	for i := 0; i < m; i++ {
		for c := 0; c < k; c++ {
			var dot float64
			for j := 0; j < m; j++ {
				dot += a[i*m+j] * x[j*k+c]
			}
			worst = math.Max(worst, math.Abs(dot-b[i*k+c]))
			scale = math.Max(scale, math.Abs(b[i*k+c]))
		}
	}
	if scale == 0 {
		return worst
	}
	return worst / scale
}

// Close reports whether got is within the relative tolerance of want
// (absolute near zero). NaN never passes.
func Close(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want))
}
