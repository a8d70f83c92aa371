package schedule

import (
	"fmt"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/telemetry"
)

// Incremental re-planning telemetry.
var (
	telIncrReused = telemetry.Default().Counter("schedule_incremental_reused_components_total",
		"Components whose cached plan was reused verbatim by an incremental solve.")
	telIncrDirty = telemetry.Default().Counter("schedule_incremental_dirty_components_total",
		"Components re-solved from scratch by an incremental solve.")
)

// ComponentPlan is one component's cached solution: everything needed to
// skip both solver stages when the component reappears untouched in a
// later instance.
type ComponentPlan struct {
	// Key is the component's job-ID fingerprint (Component.Key).
	Key string
	// Inst is the sub-instance the plan was solved on, kept for the
	// structural match against a candidate component.
	Inst *Instance
	// ZStarC is the component's stage-1 optimum.
	ZStarC float64
	// LadderAlpha is the first feasible α of the component's Remark-1
	// ladder at the caching solve's global Z*.
	LadderAlpha float64
	// SolvedAlpha is the α the cached Frac was extracted at — the global
	// α of the caching solve (≥ LadderAlpha).
	SolvedAlpha float64
	// Frac is the fractional stage-2 optimum at SolvedAlpha, shaped for
	// Inst's grid.
	Frac *Assignment
}

// PlanCache carries per-component plans between incremental solves. It is
// rebuilt wholesale by every MaxThroughputIncremental call (entries for
// vanished components drop out; every surviving component's plan is
// refreshed to the current grid), so it never grows beyond the live
// component set and never retains stale grids.
type PlanCache struct {
	// ZStar is the global stage-1 optimum of the caching solve. Cached
	// stage-2 state is only valid while the global Z* is bit-identical:
	// the fairness floor (1−α)·Z* enters every component's LP.
	ZStar float64
	// Plans maps Component.Key to the component's cached plan.
	Plans map[string]*ComponentPlan
}

// matchPlan reports whether a cached component plan is structurally
// identical to a candidate component up to a uniform forward shift of the
// slice grid, and returns that shift (old slice index = new + off).
//
// The flow variables of the stage-1/stage-2 models exist only inside each
// job's slice window and capacity rows only where such variables load
// them, so two sub-instances that agree job-for-job in absolute time
// produce structurally identical LPs regardless of grid origin; under a
// deterministic pricing rule the simplex then reproduces the cached
// solution exactly. The checks below establish exactly that agreement:
//
//   - same graph object (the controller swaps the graph pointer on any
//     topology event, so pointer equality certifies identical capacities
//     and path feasibility),
//   - no per-slice capacity overrides on either side (overrides are keyed
//     by absolute slice index and would not survive the shift),
//   - identical jobs (struct equality: size, window, endpoints — a job
//     that transferred bytes or slid its window fails this),
//   - identical candidate path sets,
//   - every job's slice window shifted by one common non-negative offset,
//     with matching slice durations across the window.
func matchPlan(cp *ComponentPlan, c *Component) (int, bool) {
	old, cur := cp.Inst, c.Inst
	if old.G != cur.G {
		return 0, false
	}
	if len(old.capOverride) != 0 || len(cur.capOverride) != 0 {
		return 0, false
	}
	if len(old.Jobs) != len(cur.Jobs) {
		return 0, false
	}
	off := 0
	for k := range cur.Jobs {
		if old.Jobs[k] != cur.Jobs[k] {
			return 0, false
		}
		wo, wn := old.windows[k], cur.windows[k]
		if k == 0 {
			off = wo.first - wn.first
			if off < 0 {
				return 0, false
			}
		}
		if wo.first-wn.first != off || wo.last-wn.last != off {
			return 0, false
		}
		if len(old.JobPaths[k]) != len(cur.JobPaths[k]) {
			return 0, false
		}
		for p := range cur.JobPaths[k] {
			po, pn := old.JobPaths[k][p].Edges, cur.JobPaths[k][p].Edges
			if len(po) != len(pn) {
				return 0, false
			}
			for e := range pn {
				if po[e] != pn[e] {
					return 0, false
				}
			}
		}
		for j := wn.first; j <= wn.last; j++ {
			if j < 0 || j >= cur.Grid.Num() || j+off >= old.Grid.Num() {
				return 0, false
			}
			if old.Grid.Len(j+off) != cur.Grid.Len(j) {
				return 0, false
			}
		}
	}
	return off, true
}

// reindexFrac maps a cached fractional assignment onto the new grid:
// old slice j+off becomes new slice j. Slices of the new grid with no
// old counterpart stay zero — matchPlan guaranteed they are outside
// every job window, where the LP pins the variables to zero anyway.
func reindexFrac(old *Assignment, newInst *Instance, off int) *Assignment {
	out := NewAssignment(newInst)
	for k := range out.X {
		for p := range out.X[k] {
			src := old.X[k][p]
			dst := out.X[k][p]
			for j := range dst {
				if j+off < len(src) {
					dst[j] = src[j+off]
				}
			}
		}
	}
	return out
}

// MaxThroughputIncremental is MaxThroughput with component-level reuse:
// components of the instance that are structurally unchanged since the
// caching solve (per matchPlan) skip stage 1 entirely and, while the
// global Z* is unchanged, reuse their cached stage-2 fractional optimum
// instead of re-solving, so the epoch cost scales with the churned
// components rather than the fleet. The returned result is byte-identical
// to MaxThroughput's under a deterministic pricing rule (the property the
// decomposition tests pin with Dantzig + RefactorEvery 1): reuse only
// substitutes a solution the solver is guaranteed to reproduce.
//
// The returned cache replaces the caller's previous one wholesale; pass
// it to the next call. A nil cache (or Monolithic config, which returns a
// nil cache and delegates to MaxThroughput) simply solves everything.
func MaxThroughputIncremental(inst *Instance, cfg Config, cache *PlanCache) (*Result, *PlanCache, error) {
	cfg = cfg.withDefaults()
	if cfg.Monolithic {
		res, err := MaxThroughput(inst, cfg)
		return res, nil, err
	}
	comps := Decompose(inst, nil)
	if len(comps) <= 1 {
		// Mirror MaxThroughput's single-block path exactly; a lone
		// component has nothing to reuse against (any churn touches it).
		observeComponents(comps)
		s1, err := SolveStage1(inst, cfg.Solver)
		if err != nil {
			return nil, nil, err
		}
		res, err := maxThroughputWithZMono(inst, s1, cfg)
		return res, nil, err
	}

	matches := make([]*ComponentPlan, len(comps))
	offs := make([]int, len(comps))
	for i, c := range comps {
		if cache == nil {
			break
		}
		if cp := cache.Plans[c.Key]; cp != nil {
			if off, ok := matchPlan(cp, c); ok {
				matches[i], offs[i] = cp, off
			}
		}
	}

	// Stage 1: solve only the dirty components; clean ones contribute
	// their cached optimum. Z* = min over components, as in the full
	// decomposed path.
	wall := time.Now()
	s1s := make([]*Stage1Result, len(comps))
	err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		if matches[i] != nil {
			s1s[i] = &Stage1Result{ZStar: matches[i].ZStarC}
			return nil
		}
		r, err := SolveStage1(comps[i].Inst, cfg.Solver)
		s1s[i] = r
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	merged := &Stage1Result{ZStar: s1s[0].ZStar, Time: time.Since(wall)}
	var stage1Serial time.Duration
	for _, r := range s1s {
		if r.ZStar < merged.ZStar {
			merged.ZStar = r.ZStar
		}
		merged.Iters += r.Iters
		stage1Serial += r.Time
	}
	telStage1ZStar.Set(merged.ZStar)
	telParallelWallSeconds.Observe(merged.Time.Seconds())
	telSerialSolveSeconds.Observe(stage1Serial.Seconds())

	// Cached stage-2 state is keyed to the global Z* bit for bit: the
	// floor (1−α)·Z* enters every LP, so a changed Z* dirties stage 2
	// everywhere (stage-1 reuse above still stands).
	zstar := merged.ZStar
	zSame := cache != nil && cache.ZStar == zstar

	// Stage 2, mirroring stage2Decomposed with reuse spliced in: clean
	// components under an unchanged Z* already know their ladder α; the
	// others walk the real ladder.
	type ladder struct {
		alpha  float64
		frac   *Assignment
		iters  int
		dur    time.Duration
		cached bool
		reused bool
	}
	stage2Wall := time.Now()
	lads := make([]ladder, len(comps))
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		if matches[i] != nil && zSame {
			lads[i] = ladder{alpha: matches[i].LadderAlpha, cached: true}
			return nil
		}
		a, frac, iters, dur, err := stage2Ladder(comps[i].Inst, zstar, cfg)
		lads[i] = ladder{alpha: a, frac: frac, iters: iters, dur: dur}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	alpha := lads[0].alpha
	for _, l := range lads[1:] {
		if l.alpha > alpha {
			alpha = l.alpha
		}
	}
	// Final fractional solutions at the global α. A clean component whose
	// cached extraction used this exact α reuses it (reindexed to the new
	// grid); everything else is (re-)solved at α, exactly as the full
	// decomposed path re-solves components that settled below the global
	// α — a ladder's final accepted solve and a direct solve at its α are
	// the same LP call, so the substitution is invisible.
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		if lads[i].cached {
			cp := matches[i]
			if cp.SolvedAlpha == alpha {
				lads[i].frac = reindexFrac(cp.Frac, comps[i].Inst, offs[i])
				lads[i].reused = true
				return nil
			}
		} else if lads[i].alpha == alpha {
			return nil
		}
		start := time.Now()
		frac, status, iters, err := solveStage2Frac(comps[i].Inst, zstar, alpha, cfg)
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
		return nil, nil, err
	}
	stage2Time := time.Since(stage2Wall)

	fracs := make([]*Assignment, len(comps))
	iters := 0
	reused := 0
	var stage2Serial time.Duration
	for i, l := range lads {
		fracs[i] = l.frac
		iters += l.iters
		stage2Serial += l.dur
		if l.reused {
			reused++
		}
	}
	telIncrReused.Add(int64(reused))
	telIncrDirty.Add(int64(len(comps) - reused))

	mergedFrac := mergeAssignments(inst, comps, fracs)
	truncStart := time.Now()
	lpd := mergedFrac.Truncate()
	truncTime := time.Since(truncStart)
	adjStart := time.Now()
	lpdar := AdjustRates(lpd, cfg.Adjust)
	adjTime := time.Since(adjStart)

	res := &Result{
		ZStar:        zstar,
		Alpha:        alpha,
		LP:           mergedFrac,
		LPD:          lpd,
		LPDAR:        lpdar,
		Stage1Iters:  merged.Iters,
		Stage2Iters:  iters,
		Stage1Time:   merged.Time,
		Stage2Time:   stage2Time,
		TruncateTime: truncTime,
		AdjustTime:   adjTime,
		Components:   len(comps),
		Reused:       reused,
	}
	observeDecomposition(comps, stage2Time.Seconds(), stage2Serial.Seconds())
	telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
	if cfg.Solver.Tracer != nil {
		cfg.Solver.Tracer.Event("schedule.stage2",
			telemetry.KV("alpha", alpha),
			telemetry.KV("iters", iters),
			telemetry.KV("components", len(comps)),
			telemetry.KV("lp_throughput", res.LP.WeightedThroughput()),
			telemetry.KV("lpdar_throughput", res.LPDAR.WeightedThroughput()))
		cfg.Solver.Tracer.Event("schedule.incremental",
			telemetry.KV("components", len(comps)),
			telemetry.KV("reused", reused))
	}

	next := &PlanCache{ZStar: zstar, Plans: make(map[string]*ComponentPlan, len(comps))}
	for i, c := range comps {
		next.Plans[c.Key] = &ComponentPlan{
			Key:         c.Key,
			Inst:        c.Inst,
			ZStarC:      s1s[i].ZStar,
			LadderAlpha: lads[i].alpha,
			SolvedAlpha: alpha,
			Frac:        lads[i].frac,
		}
	}
	return res, next, nil
}
