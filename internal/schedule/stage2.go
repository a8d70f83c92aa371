package schedule

import (
	"fmt"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/telemetry"
)

// Config tunes the two-stage maximizing-throughput algorithm.
type Config struct {
	// Alpha is the fairness slack in constraint (9): every job's
	// throughput must reach (1−Alpha)·Z*. The paper uses 0.1.
	Alpha float64
	// AlphaGrowth: if the stage-2 LP is infeasible at Alpha (possible for
	// very tight instances), Alpha is increased by this additive step and
	// the LP retried, per the paper's Remark 1. Zero disables retries.
	AlphaGrowth float64
	// MaxAlpha bounds the retries; default 1 (no fairness floor at all).
	MaxAlpha float64
	// Solver passes through to the simplex.
	Solver lp.Options
	// Adjust tunes the LPDAR greedy pass; the zero value is the paper's
	// verbatim Algorithm 1.
	Adjust AdjustOptions
	// Weight sets the stage-2 objective weights (nil selects the paper's
	// default, WeightBySize). See WeightFunc for the alternatives the
	// paper discusses.
	Weight WeightFunc
	// Monolithic forces one LP over all jobs even when the instance
	// decomposes into independent components (see Decompose) — the A/B
	// switch for comparing against the decomposed parallel path, which
	// is the default.
	Monolithic bool
	// Parallelism bounds the worker pool for per-component solves; ≤ 0
	// selects NumCPU. The merge order is fixed by component order, so
	// any parallelism level produces identical results.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.MaxAlpha == 0 {
		c.MaxAlpha = 1
	}
	return c
}

// Result is the outcome of the full maximizing-throughput algorithm with
// all three solution variants the paper compares.
type Result struct {
	ZStar float64 // from stage 1
	Alpha float64 // the fairness slack actually used

	LP    *Assignment // fractional stage-2 optimum (upper bound)
	LPD   *Assignment // truncated integer solution
	LPDAR *Assignment // truncated + greedily adjusted integer solution

	Stage1Iters  int
	Stage2Iters  int
	Stage1Time   time.Duration
	Stage2Time   time.Duration
	TruncateTime time.Duration // LPD truncation
	AdjustTime   time.Duration // LPDAR greedy pass (after truncation)

	// Components is the number of independent blocks the instance was
	// decomposed into (1 for a monolithic solve or a fully coupled
	// instance).
	Components int

	// Reused is the number of components whose cached plan an incremental
	// solve substituted for a fresh LP (always 0 outside
	// MaxThroughputIncremental).
	Reused int
}

// LPTime is the total optimization time shared by all three variants.
func (r *Result) LPTime() time.Duration { return r.Stage1Time + r.Stage2Time }

// LPDTime is the total time to produce the LPD solution.
func (r *Result) LPDTime() time.Duration { return r.LPTime() + r.TruncateTime }

// LPDARTime is the total time to produce the LPDAR solution.
func (r *Result) LPDARTime() time.Duration { return r.LPDTime() + r.AdjustTime }

// MaxThroughput runs the paper's Section II-B algorithm end to end:
// stage 1 (MCF) for Z*, stage 2 LP with the fairness floor, then LPD and
// LPDAR integerization. When the instance decomposes into independent
// components (and Config.Monolithic is off), both stages are solved per
// component on a worker pool: Z* is the minimum of the component optima
// and the stage-2 floor (1−α)·Z* makes stage 2 separable given that
// global Z*, so the merged schedule matches the monolithic solve.
func MaxThroughput(inst *Instance, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	comps := decomposeFor(inst, cfg.Monolithic, nil)
	if len(comps) > 1 {
		return maxThroughputDecomposed(inst, comps, cfg)
	}
	observeComponents(comps)
	s1, err := SolveStage1(inst, cfg.Solver)
	if err != nil {
		return nil, err
	}
	return maxThroughputWithZMono(inst, s1, cfg)
}

// decomposeFor returns the instance's components unless monolithic
// solving is forced.
func decomposeFor(inst *Instance, monolithic bool, extLast []int) []*Component {
	if monolithic {
		return nil
	}
	return Decompose(inst, extLast)
}

// maxThroughputDecomposed runs stage 1 per component in parallel, merges
// Z* = min over components (the monolithic optimum: the common scale is
// limited by the tightest block), and continues with decomposed stage 2.
func maxThroughputDecomposed(inst *Instance, comps []*Component, cfg Config) (*Result, error) {
	wall := time.Now()
	s1s := make([]*Stage1Result, len(comps))
	err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		r, err := SolveStage1(comps[i].Inst, cfg.Solver)
		s1s[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := &Stage1Result{ZStar: s1s[0].ZStar, Time: time.Since(wall)}
	var serial time.Duration
	for _, r := range s1s {
		if r.ZStar < merged.ZStar {
			merged.ZStar = r.ZStar
		}
		merged.Iters += r.Iters
		serial += r.Time
	}
	telStage1ZStar.Set(merged.ZStar)
	telParallelWallSeconds.Observe(merged.Time.Seconds())
	telSerialSolveSeconds.Observe(serial.Seconds())
	return stage2Decomposed(inst, comps, merged, cfg)
}

// MaxThroughputWithZ runs stage 2 for an already-computed stage-1 result.
// Only s1.ZStar, Iters, and Time are consulted, so a stage-1 result from
// a different (e.g. healthier) topology is acceptable — the controller's
// degraded-mode situation.
func MaxThroughputWithZ(inst *Instance, s1 *Stage1Result, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	comps := decomposeFor(inst, cfg.Monolithic, nil)
	if len(comps) > 1 {
		return stage2Decomposed(inst, comps, s1, cfg)
	}
	observeComponents(comps)
	return maxThroughputWithZMono(inst, s1, cfg)
}

// maxThroughputWithZMono is the single-model stage-2 path: the α ladder
// over the whole instance.
func maxThroughputWithZMono(inst *Instance, s1 *Stage1Result, cfg Config) (*Result, error) {
	alpha := cfg.Alpha
	for {
		res, status, err := solveStage2(inst, s1.ZStar, alpha, cfg)
		if err != nil {
			return nil, err
		}
		if status == lp.Optimal {
			res.ZStar = s1.ZStar
			res.Alpha = alpha
			res.Stage1Iters = s1.Iters
			res.Stage1Time = s1.Time
			res.Components = 1
			telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2",
					telemetry.KV("alpha", alpha),
					telemetry.KV("iters", res.Stage2Iters),
					telemetry.KV("lp_throughput", res.LP.WeightedThroughput()),
					telemetry.KV("lpdar_throughput", res.LPDAR.WeightedThroughput()))
			}
			return res, nil
		}
		if status == lp.Infeasible && cfg.AlphaGrowth > 0 && alpha+cfg.AlphaGrowth <= cfg.MaxAlpha {
			telStage2AlphaRetries.Inc()
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
					telemetry.KV("alpha", alpha),
					telemetry.KV("next_alpha", alpha+cfg.AlphaGrowth))
			}
			alpha += cfg.AlphaGrowth // Remark 1: increase α and retry
			continue
		}
		return nil, fmt.Errorf("schedule: stage 2: solver returned %v (alpha=%g)", status, alpha)
	}
}

// buildStage2Model assembles the stage-2 program (eqs. 7–10 without the
// integrality constraint) and returns the model together with the Z and x
// variable maps. The coupling rows are the first rows of the model (row k
// is job k's), and the returned map records the capacity row of each
// loaded (edge, slice) — the layout the column-generation pricer relies
// on.
func buildStage2Model(inst *Instance, zstar, alpha float64, weight WeightFunc) (*lp.Model, []lp.VarID, flowVars, map[capKey]lp.RowID, error) {
	if inst.TotalDemand() <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("schedule: stage 2: no demand")
	}
	if weight == nil {
		weight = WeightBySize
	}
	wsum := 0.0
	for _, jb := range inst.Jobs {
		wsum += weight(jb)
	}
	if wsum <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("schedule: stage 2: non-positive total weight")
	}
	m := lp.NewModel("stage2", lp.Maximize)
	// Z_i variables with the fairness floor (9) as a lower bound. The
	// objective (7) weights each Z_i by w_i/Σw (w_i = D_i by default).
	floor := (1 - alpha) * zstar
	if floor < 0 {
		floor = 0
	}
	zvars := make([]lp.VarID, inst.NumJobs())
	for k, jb := range inst.Jobs {
		zvars[k] = m.AddVar(fmt.Sprintf("Z_%d", jb.ID), floor, lp.Inf, weight(jb)/wsum)
	}
	xvars, err := addFlowVars(m, inst, nil, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Coupling (8): Σ x·LEN = Z_i·D_i.
	for k, jb := range inst.Jobs {
		r := m.AddRow(fmt.Sprintf("job%d", jb.ID), lp.EQ, 0)
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.AddTerm(r, v, inst.Grid.Len(j))
		})
		m.AddTerm(r, zvars[k], -jb.Size)
	}
	capRows := addCapacityRows(m, inst, xvars, 0)
	return m, zvars, xvars, capRows, nil
}

// solveStage2 builds and solves the stage-2 LP (eqs. 7–10 without
// integrality), then integerizes.
func solveStage2(inst *Instance, zstar, alpha float64, cfg Config) (*Result, lp.Status, error) {
	start := time.Now()
	frac, status, iters, err := solveStage2Frac(inst, zstar, alpha, cfg)
	if err != nil || status != lp.Optimal {
		return nil, status, err
	}
	stage2Time := time.Since(start)

	truncStart := time.Now()
	lpd := frac.Truncate()
	truncTime := time.Since(truncStart)
	adjStart := time.Now()
	lpdar := AdjustRates(lpd, cfg.Adjust)
	adjTime := time.Since(adjStart)

	return &Result{
		LP:           frac,
		LPD:          lpd,
		LPDAR:        lpdar,
		Stage2Iters:  iters,
		Stage2Time:   stage2Time,
		TruncateTime: truncTime,
		AdjustTime:   adjTime,
	}, lp.Optimal, nil
}

// solveStage2Frac builds and solves the fractional stage-2 LP, returning
// the extracted assignment on an Optimal outcome and the status
// otherwise.
func solveStage2Frac(inst *Instance, zstar, alpha float64, cfg Config) (*Assignment, lp.Status, int, error) {
	m, _, xvars, _, err := buildStage2Model(inst, zstar, alpha, cfg.Weight)
	if err != nil {
		return nil, lp.Infeasible, 0, err
	}
	sol, err := m.SolveWith(cfg.Solver)
	if err != nil {
		return nil, lp.Numerical, 0, fmt.Errorf("schedule: stage 2: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Status, sol.Iters, nil
	}
	return extractAssignment(inst, xvars, sol), lp.Optimal, sol.Iters, nil
}

// stage2Decomposed runs the Remark-1 α ladder per component, lifts the
// fairness slack to the maximum over components (the first α at which
// every block is feasible — exactly where the monolithic ladder stops,
// since block feasibility is monotone in α and the ladder steps are the
// same float sequence), re-solves the components that were feasible at a
// smaller α, and integerizes the merged fractional solution globally.
func stage2Decomposed(inst *Instance, comps []*Component, s1 *Stage1Result, cfg Config) (*Result, error) {
	type ladder struct {
		alpha float64
		frac  *Assignment
		iters int
		dur   time.Duration
	}
	wall := time.Now()
	lads := make([]ladder, len(comps))
	err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		a, frac, iters, dur, err := stage2Ladder(comps[i].Inst, s1.ZStar, cfg)
		lads[i] = ladder{alpha: a, frac: frac, iters: iters, dur: dur}
		return err
	})
	if err != nil {
		return nil, err
	}
	alpha := lads[0].alpha
	for _, l := range lads[1:] {
		if l.alpha > alpha {
			alpha = l.alpha
		}
	}
	// Components that settled below the global α must be re-solved there:
	// the monolithic LP would have applied the higher floor (1−α)·Z* to
	// every job. A larger α only loosens the floor, so these re-solves
	// stay feasible.
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		if lads[i].alpha == alpha {
			return nil
		}
		start := time.Now()
		frac, status, iters, err := solveStage2Frac(comps[i].Inst, s1.ZStar, alpha, cfg)
		if err != nil {
			return err
		}
		if status != lp.Optimal {
			return fmt.Errorf("schedule: stage 2: component re-solve at alpha=%g returned %v", alpha, status)
		}
		lads[i].frac = frac
		lads[i].iters += iters
		lads[i].dur += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	stage2Time := time.Since(wall)

	fracs := make([]*Assignment, len(comps))
	iters := 0
	var serial time.Duration
	for i, l := range lads {
		fracs[i] = l.frac
		iters += l.iters
		serial += l.dur
	}
	merged := mergeAssignments(inst, comps, fracs)
	truncStart := time.Now()
	lpd := merged.Truncate()
	truncTime := time.Since(truncStart)
	adjStart := time.Now()
	lpdar := AdjustRates(lpd, cfg.Adjust)
	adjTime := time.Since(adjStart)

	res := &Result{
		ZStar:        s1.ZStar,
		Alpha:        alpha,
		LP:           merged,
		LPD:          lpd,
		LPDAR:        lpdar,
		Stage1Iters:  s1.Iters,
		Stage2Iters:  iters,
		Stage1Time:   s1.Time,
		Stage2Time:   stage2Time,
		TruncateTime: truncTime,
		AdjustTime:   adjTime,
		Components:   len(comps),
	}
	observeDecomposition(comps, stage2Time.Seconds(), serial.Seconds())
	telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
	if cfg.Solver.Tracer != nil {
		cfg.Solver.Tracer.Event("schedule.stage2",
			telemetry.KV("alpha", alpha),
			telemetry.KV("iters", iters),
			telemetry.KV("components", len(comps)),
			telemetry.KV("lp_throughput", res.LP.WeightedThroughput()),
			telemetry.KV("lpdar_throughput", res.LPDAR.WeightedThroughput()))
	}
	return res, nil
}

// stage2Ladder walks one component up the Remark-1 α ladder and returns
// the first feasible α with its fractional optimum. The α accumulation
// mirrors maxThroughputWithZMono exactly, so every component's ladder
// visits the same float sequence and the max over components is the
// monolithic stopping point bit for bit.
func stage2Ladder(inst *Instance, zstar float64, cfg Config) (float64, *Assignment, int, time.Duration, error) {
	start := time.Now()
	alpha := cfg.Alpha
	iters := 0
	for {
		frac, status, it, err := solveStage2Frac(inst, zstar, alpha, cfg)
		iters += it
		if err != nil {
			return alpha, nil, iters, time.Since(start), err
		}
		if status == lp.Optimal {
			return alpha, frac, iters, time.Since(start), nil
		}
		if status == lp.Infeasible && cfg.AlphaGrowth > 0 && alpha+cfg.AlphaGrowth <= cfg.MaxAlpha {
			telStage2AlphaRetries.Inc()
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
					telemetry.KV("alpha", alpha),
					telemetry.KV("next_alpha", alpha+cfg.AlphaGrowth))
			}
			alpha += cfg.AlphaGrowth // Remark 1: increase α and retry
			continue
		}
		return alpha, nil, iters, time.Since(start), fmt.Errorf("schedule: stage 2: solver returned %v (alpha=%g)", status, alpha)
	}
}
