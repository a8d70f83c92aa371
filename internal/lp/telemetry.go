package lp

import (
	"time"

	"wavesched/internal/telemetry"
)

// Package-level instruments on the default telemetry registry. Counter
// and histogram updates are a handful of atomic operations per *solve*
// (never per pivot), so they stay enabled unconditionally; span tracing
// is gated on Options.Tracer being non-nil.
var (
	telSolveSeconds = telemetry.Default().Histogram("lp_solve_seconds",
		"Wall time of one LP solve (Model.SolveWith or a chained Incremental.Solve) in seconds.", nil)
	telPivots = telemetry.Default().Counter("lp_pivots_total",
		"Simplex pivots across both phases, summed over all solves.")
	telPhase1Pivots = telemetry.Default().Counter("lp_phase1_pivots_total",
		"Simplex pivots spent in phase 1 (finding a feasible basis).")
	telPhase2Pivots = telemetry.Default().Counter("lp_phase2_pivots_total",
		"Simplex pivots spent in phase 2 (optimizing the real objective).")
	telInfeasible = telemetry.Default().Counter("lp_infeasible_total",
		"Solves that proved the model infeasible.")
	telPresolveFixedVars = telemetry.Default().Counter("lp_presolve_fixed_vars_total",
		"Variables eliminated by presolve bound-fixing.")
	telPresolveDroppedRows = telemetry.Default().Counter("lp_presolve_dropped_rows_total",
		"Rows eliminated by presolve (singleton and empty rows).")
	telTimeouts = telemetry.Default().Counter("lp_solve_timeouts_total",
		"Solves aborted because the wall-clock Options.TimeLimit expired.")
	telWarmHits = telemetry.Default().Counter("lp_warmstart_hits_total",
		"Solves that ran to completion from a supplied warm-start basis.")
	telWarmFallbacks = telemetry.Default().Counter("lp_warmstart_fallbacks_total",
		"Warm-start attempts abandoned for the cold path (structural mismatch, singular basis, or numerical trouble).")
	telDevexResets = telemetry.Default().Counter("lp_devex_resets_total",
		"Devex reference-framework restarts triggered by weight overflow.")
	telProbePruned = telemetry.Default().Counter("lp_probe_pruned_total",
		"Feasibility probes answered by a certificate check instead of a simplex solve.")

	telSolvesByStatus = func() map[Status]*telemetry.Counter {
		m := make(map[Status]*telemetry.Counter)
		for _, st := range []Status{Optimal, Infeasible, Unbounded, IterLimit, Numerical, TimeLimit} {
			m[st] = telemetry.Default().CounterWith("lp_solves_total",
				"LP solves by final status.", map[string]string{"status": st.String()})
		}
		return m
	}()
)

// observeSolve records one finished solve — a Model.SolveWith call or a
// chained Incremental re-solve — in the shared solve counters. pivots is
// the simplex work the solve itself did.
func observeSolve(start time.Time, sol *Solution, pivots int) {
	telSolveSeconds.ObserveSince(start)
	if sol == nil {
		return
	}
	telPivots.Add(int64(pivots))
	if c, ok := telSolvesByStatus[sol.Status]; ok {
		c.Inc()
	}
	if sol.Status == Infeasible {
		telInfeasible.Inc()
	}
}
