package schedule

import (
	"fmt"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// readCounter reads a counter off the default telemetry registry.
func readCounter(t testing.TB, name string) int64 {
	t.Helper()
	return telemetry.Default().Counter(name, "").Value()
}

// mustGrid builds a unit-slice grid of n slices.
func mustGrid(t testing.TB, n int) *timeslice.Grid {
	t.Helper()
	grid, err := timeslice.Uniform(0, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// assignmentBytes renders every flow value exactly, so two assignments
// compare byte-identical iff every float64 is bit-identical.
func assignmentBytes(a *Assignment) string {
	if a == nil {
		return "<nil>"
	}
	s := ""
	for k := range a.X {
		for p := range a.X[k] {
			for j, v := range a.X[k][p] {
				if v != 0 {
					s += fmt.Sprintf("%d/%d/%d=%b\n", k, p, j, v)
				}
			}
		}
	}
	return s
}

// retWarmInstance builds an overloaded multi-job instance whose RET search
// needs a real binary search (b̂ > 0).
func retWarmInstance(t testing.TB) *Instance {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 12, LinkPairs: 24, Wavelengths: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 8, Seed: 4, GBToDemand: 0.9, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestSolveRETWarmByteIdentical is the determinism gate for the chained
// probe search: SolveRET must return bit-for-bit the same schedules, b
// values, and round count as the plain oracle that solves every probe
// cold — also when the previous solve's carry seeds it.
func TestSolveRETWarmByteIdentical(t *testing.T) {
	inst := retWarmInstance(t)
	plain := solvePlainRET(t, inst, RETConfig{Solver: solverOpts()})
	if plain.BHat == 0 {
		t.Fatal("test instance not overloaded: b̂ = 0 exercises no search")
	}
	warm, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsPlain(t, "warm", plain, warm)
	cb := warm.ProbeBases[fullInstanceComponent(inst).Key]
	if cb == nil || cb.Basis == nil {
		t.Fatal("warm run did not hand back a probe basis")
	}
	if warm.LPIters >= plain.LPIters {
		t.Logf("warm pivots %d not below plain %d (speedup comes from skipped phase 1; not fatal)",
			warm.LPIters, plain.LPIters)
	}

	// A second run seeded with the first run's carry must agree too.
	carried, err := SolveRET(inst, RETConfig{Solver: solverOpts(), WarmComponents: warm.ProbeBases})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsPlain(t, "carry-seeded", plain, carried)
}

// TestStage2WarmAlphaLadder forces the Remark-1 retry ladder — stage 2
// re-planned against a degraded topology with the healthy topology's Z*,
// the controller's degraded-mode situation — and checks the ladder
// retries and lands on the first α whose floor the degraded net can hold.
func TestStage2WarmAlphaLadder(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4}}
	grid := mustGrid(t, 4)
	healthy, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := SolveStage1(healthy, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s1.ZStar < 0.99 {
		t.Fatalf("Z* = %g, want ≈ 1 so the stale floor overcommits the degraded net", s1.ZStar)
	}

	// Degrade every edge to one wavelength: deliverable halves, so the
	// floor (1-α)·Z*·D is infeasible until α reaches ≈ 0.5.
	degraded := func() *Instance {
		in, err := NewInstance(g, grid, jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			for j := 0; j < grid.Num(); j++ {
				if err := in.SetCapacity(e.ID, j, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		return in
	}

	retries0 := readCounter(t, "schedule_stage2_alpha_retries_total")
	cfg := Config{Alpha: 0.05, AlphaGrowth: 0.05, Solver: solverOpts()}
	cold, err := MaxThroughputWithZ(degraded(), s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRetries := readCounter(t, "schedule_stage2_alpha_retries_total") - retries0
	if coldRetries == 0 {
		t.Fatal("instance did not force the α ladder; test is vacuous")
	}
	// Remark 1: one retry per α step, accumulated by repeated addition,
	// stopping at the first α whose floor (1-α)·Z*·D fits the halved
	// capacity — nine steps from 0.05 reach α ≈ 0.5.
	if coldRetries != 9 {
		t.Fatalf("α ladder took %d retries, want 9", coldRetries)
	}
	want := cfg.Alpha
	for i := 0; i < 9; i++ {
		want += cfg.AlphaGrowth
	}
	if cold.Alpha != want {
		t.Fatalf("final alpha %v, want %v", cold.Alpha, want)
	}
}

// TestPathCacheAcrossMaskedFailures checks the satellite bugfix: building
// instances against residual topologies with the same failed link hits
// the cache instead of recomputing path sets.
func TestPathCacheAcrossMaskedFailures(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 10, LinkPairs: 20, Wavelengths: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 6, Seed: 10, GBToDemand: 0.2, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := mustGrid(t, 4)
	pc := NewPathCache()
	opts := InstanceOptions{K: 4, PathCache: pc}

	base, err := NewInstanceOpts(g, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, misses0 := pc.Stats()
	if misses0 == 0 {
		t.Fatal("first build should miss the cache")
	}

	// Same topology again: all hits, no new misses.
	again, err := NewInstanceOpts(g, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := pc.Stats()
	if misses1 != misses0 || hits1 == 0 {
		t.Fatalf("rebuild on unchanged topology: hits=%d misses=%d (want 0 new misses)", hits1, misses1)
	}
	for k := range base.JobPaths {
		if len(base.JobPaths[k]) != len(again.JobPaths[k]) {
			t.Fatalf("cached path set differs for job %d", k)
		}
	}

	// Fail a link that some path uses: new key, so misses grow.
	down := base.JobPaths[0][0].Edges[0]
	resid, err := g.WithLinksDown(down)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstanceOpts(resid, grid, jobs, opts); err != nil {
		t.Fatal(err)
	}
	_, misses2 := pc.Stats()
	if misses2 == misses1 {
		t.Fatal("masked topology reused unmasked path sets")
	}

	// The same failure again: fully cached.
	if _, err := NewInstanceOpts(resid, grid, jobs, opts); err != nil {
		t.Fatal(err)
	}
	if _, misses3 := pc.Stats(); misses3 != misses2 {
		t.Fatalf("repeated masking of the same failure missed the cache (misses %d -> %d)", misses2, misses3)
	}

	// Cached residual paths must equal freshly-computed ones.
	fresh, err := NewInstanceOpts(resid, grid, jobs, InstanceOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewInstanceOpts(resid, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range fresh.JobPaths {
		if len(fresh.JobPaths[k]) != len(cached.JobPaths[k]) {
			t.Fatalf("job %d: cached %d paths, fresh %d", k, len(cached.JobPaths[k]), len(fresh.JobPaths[k]))
		}
		for p := range fresh.JobPaths[k] {
			fe, ce := fresh.JobPaths[k][p].Edges, cached.JobPaths[k][p].Edges
			if len(fe) != len(ce) {
				t.Fatalf("job %d path %d: edge count differs", k, p)
			}
			for i := range fe {
				if fe[i] != ce[i] {
					t.Fatalf("job %d path %d edge %d differs", k, p, i)
				}
			}
		}
	}
}
