package schedule

import (
	"fmt"
	"testing"
)

// plainRETSearch is the test oracle for retSearch: the paper's binary
// search with every feasibility probe answered by a cold per-b SUB-RET
// solve — no window memo, no certificates, no probe chain, no carry. It
// still runs the extraction chain's seed solve at b = BMax, because that
// solve belongs to the extraction sequence, not to the search.
func plainRETSearch(inst *Instance, cfg RETConfig, env retSearchEnv, comp string) (float64, int, []ProbeStep, error) {
	if _, _, _, _, err := env.chain.solveAt(inst, cfg.BMax); err != nil {
		return 0, 0, nil, err
	}
	iters := 0
	feasibleAt := func(b float64) (bool, error) {
		f, _, it, err := solveSubRET(inst, b, cfg, false)
		iters += it
		return f, err
	}
	feasMax, err := feasibleAt(cfg.BMax)
	if err != nil {
		return 0, iters, nil, err
	}
	if !feasMax {
		return 0, iters, nil, fmt.Errorf("oracle: RET infeasible even at b=%g", cfg.BMax)
	}
	feas0, err := feasibleAt(0)
	if err != nil || feas0 {
		return 0, iters, nil, err
	}
	lo, hi := 0.0, cfg.BMax
	for hi-lo > cfg.Eps {
		mid := (lo + hi) / 2
		feasible, err := feasibleAt(mid)
		if err != nil {
			return 0, iters, nil, err
		}
		if feasible {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, iters, nil, nil
}

// solvePlainRET runs Algorithm 2 around the plain oracle search.
func solvePlainRET(t testing.TB, inst *Instance, cfg RETConfig) *RETResult {
	t.Helper()
	res, err := solveRET(inst, cfg, plainRETSearch)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameAsPlain fails unless the production result matches the
// oracle's bit for bit: b̂, B, the δ-round count and all three schedules.
func requireSameAsPlain(t testing.TB, label string, plain, got *RETResult) {
	t.Helper()
	if plain.BHat != got.BHat || plain.B != got.B || plain.Rounds != got.Rounds {
		t.Fatalf("%s: search outcome differs: plain (b̂=%v b=%v rounds=%d) got (b̂=%v b=%v rounds=%d)",
			label, plain.BHat, plain.B, plain.Rounds, got.BHat, got.B, got.Rounds)
	}
	for _, pair := range []struct {
		name       string
		plain, got *Assignment
	}{{"LP", plain.LP, got.LP}, {"LPD", plain.LPD, got.LPD}, {"LPDAR", plain.LPDAR, got.LPDAR}} {
		if pb, gb := assignmentBytes(pair.plain), assignmentBytes(pair.got); pb != gb {
			t.Fatalf("%s: %s schedule differs:\nplain:\n%s\ngot:\n%s", label, pair.name, pb, gb)
		}
	}
}

// TestRETFastPathByteIdentical is the invariant the whole probe-pruning
// machinery rests on: the production search — window memo, certificates,
// chained probe re-entry, on a wide worker pool — must leave the search
// outcome and the emitted schedule bit-for-bit identical to the plain
// oracle that solves every probe cold. Dantzig pricing with RefactorEvery
// 1 pins the reference pivot path exactly, as in the mono-vs-decomposed
// tests, and both monolithic and decomposed dispatch are swept.
func TestRETFastPathByteIdentical(t *testing.T) {
	last := int64(48)
	if testing.Short() {
		last = 42
	}
	anyPruned := false
	for seed := int64(40); seed < last; seed++ {
		for _, mono := range []bool{true, false} {
			inst := clusteredRETInstance(t, 3, seed)
			plain := solvePlainRET(t, inst, RETConfig{Solver: dantzigOpts(), Monolithic: mono})
			fast, err := SolveRET(inst, RETConfig{Solver: dantzigOpts(), Monolithic: mono, Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			requireSameAsPlain(t, fmt.Sprintf("seed %d mono=%v", seed, mono), plain, fast)
			if fast.ProbesPruned > 0 {
				anyPruned = true
			}
		}
	}
	if !anyPruned {
		t.Fatal("no probe was ever certificate-pruned — the fast path was never exercised")
	}
}
