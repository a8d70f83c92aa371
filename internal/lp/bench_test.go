package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomDenseLP builds a feasible bounded LP with n variables and m rows.
func randomDenseLP(n, m int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	model := NewModel("bench", Maximize)
	vars := make([]VarID, n)
	for j := range vars {
		vars[j] = model.AddVar("x", 0, float64(1+rng.Intn(9)), rng.Float64()*10-2)
	}
	for i := 0; i < m; i++ {
		r := model.AddRow("r", LE, float64(5+rng.Intn(50)))
		for j := range vars {
			if rng.Float64() < 0.3 {
				model.AddTerm(r, vars[j], rng.Float64()*4)
			}
		}
	}
	return model
}

func BenchmarkSimplexSolve(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{50, 30}, {200, 120}, {800, 500}} {
		b.Run(fmt.Sprintf("n%d_m%d", sz.n, sz.m), func(b *testing.B) {
			model := randomDenseLP(sz.n, sz.m, 1)
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				sol, err := model.Solve()
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != Optimal {
					b.Fatalf("status %v", sol.Status)
				}
				iters = sol.Iters
			}
			b.ReportMetric(float64(iters), "simplex_iters")
		})
	}
}

func BenchmarkSimplexPresolve(b *testing.B) {
	model := randomDenseLP(400, 240, 2)
	// Add structure presolve can exploit: fixed vars and singletons.
	for j := 0; j < 50; j++ {
		v := model.AddVar("fixed", 2, 2, 1)
		r := model.AddRow("s", LE, 100)
		model.AddTerm(r, v, 1)
	}
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := model.SolveWith(Options{Presolve: on})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != Optimal {
					b.Fatalf("status %v", sol.Status)
				}
			}
		})
	}
}

func BenchmarkLUFactorize(b *testing.B) {
	for _, m := range []int{50, 200, 600} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			a := make([][]float64, m)
			for i := range a {
				a[i] = make([]float64, m)
				for j := range a[i] {
					if rng.Float64() < 0.05 {
						a[i][j] = rng.NormFloat64()
					}
				}
				a[i][i] += float64(m)
			}
			rows, vals := denseToCols(m, a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := luFactorize(m, rows, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The production shape: bases of the path-based scheduling LPs are
	// about 97% slack or artificial columns. The cost should grow with
	// the nonzeros (about linearly in m here), not with m².
	for _, m := range []int{400, 2000, 4000} {
		b.Run(fmt.Sprintf("slack97_m%d", m), func(b *testing.B) {
			basis := randomBasis(shapeSlack97, m, rand.New(rand.NewSource(5)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := luFactorize(m, basis.rows, basis.vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFTRAN(b *testing.B) {
	m := 400
	rng := rand.New(rand.NewSource(4))
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			if rng.Float64() < 0.05 {
				a[i][j] = rng.NormFloat64()
			}
		}
		a[i][i] += float64(m)
	}
	rows, vals := denseToCols(m, a)
	f, err := luFactorize(m, rows, vals)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	buf := make([]float64, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, v)
		f.solve(buf)
	}
}
