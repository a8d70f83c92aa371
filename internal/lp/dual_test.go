package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestIncrementalBasic(t *testing.T) {
	// max 3x + 5y, x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → 36. Then bound y ≤ 3:
	// optimum becomes x=4, y=3 → 27.
	m := NewModel("inc", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	r1 := m.AddRow("r1", LE, 4)
	m.AddTerm(r1, x, 1)
	r2 := m.AddRow("r2", LE, 12)
	m.AddTerm(r2, y, 2)
	r3 := m.AddRow("r3", LE, 18)
	m.AddTerm(r3, x, 3)
	m.AddTerm(r3, y, 2)

	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("first solve: %v %g", sol.Status, sol.Objective)
	}

	m.SetBounds(y, 0, 3)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-27) > 1e-6 {
		t.Fatalf("re-solve: %v %g, want optimal 27", sol.Status, sol.Objective)
	}
	if math.Abs(sol.Value(x)-4) > 1e-6 || math.Abs(sol.Value(y)-3) > 1e-6 {
		t.Errorf("point %v, want (4, 3)", sol.X)
	}

	// Relax the bound back: 36 again.
	m.SetBounds(y, 0, Inf)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("relax re-solve: %v %g, want 36", sol.Status, sol.Objective)
	}
}

// TestIncrementalSolveCounted: a chained re-solve reports into the same
// counters as Model.SolveWith — one solve under its status, its own
// pivots (not the chain's running total in Solution.Iters), one
// lp_solve_seconds observation, and lp_infeasible_total when infeasible.
func TestIncrementalSolveCounted(t *testing.T) {
	m := NewModel("inc-counted", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	r1 := m.AddRow("r1", LE, 4)
	m.AddTerm(r1, x, 1)
	r2 := m.AddRow("r2", LE, 12)
	m.AddTerm(r2, y, 2)
	r3 := m.AddRow("r3", LE, 18)
	m.AddTerm(r3, x, 3)
	m.AddTerm(r3, y, 2)

	inc := NewIncremental(m, Options{})
	if _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name   string
		bound  func()
		status Status
	}{
		{"tighten", func() { m.SetBounds(y, 0, 3) }, Optimal},
		{"infeasible", func() { m.SetBounds(x, 5, Inf) }, Infeasible},
	} {
		step.bound()
		chained := inc.s
		iters := inc.Iters()
		pivots, solves := telPivots.Value(), telSolvesByStatus[step.status].Value()
		infeasible, observed := telInfeasible.Value(), telSolveSeconds.Count()
		sol, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != step.status || inc.s != chained {
			t.Fatalf("%s: status %v, chained=%v; want a chained %v re-solve", step.name, sol.Status, inc.s == chained, step.status)
		}
		own := inc.Iters() - iters
		if own == 0 || own == sol.Iters {
			t.Fatalf("%s: re-solve did %d pivots of the chain's %d; the case cannot tell them apart", step.name, own, sol.Iters)
		}
		if got := telPivots.Value() - pivots; got != int64(own) {
			t.Errorf("%s: lp_pivots_total += %d, want the re-solve's own %d", step.name, got, own)
		}
		if got := telSolvesByStatus[step.status].Value() - solves; got != 1 {
			t.Errorf("%s: lp_solves_total{status=%v} += %d, want 1", step.name, step.status, got)
		}
		wantInfeasible := int64(0)
		if step.status == Infeasible {
			wantInfeasible = 1
		}
		if got := telInfeasible.Value() - infeasible; got != wantInfeasible {
			t.Errorf("%s: lp_infeasible_total += %d, want %d", step.name, got, wantInfeasible)
		}
		if got := telSolveSeconds.Count() - observed; got != 1 {
			t.Errorf("%s: lp_solve_seconds observed %d times, want 1", step.name, got)
		}
	}
}

func TestIncrementalInfeasibleBounds(t *testing.T) {
	// Force infeasibility via bounds: x + y = 5 with both ≤ 1.
	m := NewModel("incinf", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 1)
	r := m.AddRow("r", EQ, 5)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)

	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("first: %v", sol.Status)
	}
	m.SetBounds(x, 0, 1)
	m.SetBounds(y, 0, 1)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("re-solve: %v, want infeasible", sol.Status)
	}
	// Recovery: restore bounds; the wrapper falls back to a full solve.
	m.SetBounds(x, 0, Inf)
	m.SetBounds(y, 0, Inf)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("recovery: %v %g", sol.Status, sol.Objective)
	}
}

func TestIncrementalStructureChange(t *testing.T) {
	m := NewModel("grow", Maximize)
	x := m.AddVar("x", 0, 5, 1)
	r := m.AddRow("r", LE, 4)
	m.AddTerm(r, x, 1)
	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol, err)
	}
	// Adding a variable forces a full re-solve.
	y := m.AddVar("y", 0, 2, 1)
	m.AddTerm(r, y, 1)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("after growth: %v %g, want 4", sol.Status, sol.Objective)
	}
	_ = y
}

// TestIncrementalMatchesFreshSolve drives random bound-change sequences
// and compares every re-solve against a from-scratch solve.
func TestIncrementalMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(5)
		mr := 2 + rng.Intn(5)
		m := NewModel("rnd", Minimize)
		vars := make([]VarID, n)
		for j := range vars {
			vars[j] = m.AddVar("v", 0, float64(2+rng.Intn(8)), float64(rng.Intn(11)-5))
		}
		for i := 0; i < mr; i++ {
			op := []RelOp{LE, GE, EQ}[rng.Intn(3)]
			r := m.AddRow("", op, float64(rng.Intn(12)))
			for j := range vars {
				if rng.Float64() < 0.6 {
					m.AddTerm(r, vars[j], float64(rng.Intn(7)-3))
				}
			}
		}
		inc := NewIncremental(m, Options{})
		if _, err := inc.Solve(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			// Random bound tightening/loosening on a random variable.
			v := vars[rng.Intn(n)]
			lb := float64(rng.Intn(3))
			ub := lb + float64(rng.Intn(6))
			m.SetBounds(v, lb, ub)

			got, err := inc.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("trial %d step %d: status %v vs fresh %v", trial, step, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-5*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d step %d: objective %g vs fresh %g", trial, step, got.Objective, want.Objective)
			}
			if got.PrimalInfeas > 1e-6 {
				t.Fatalf("trial %d step %d: infeasible point (%g)", trial, step, got.PrimalInfeas)
			}
		}
	}
}
