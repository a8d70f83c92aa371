package schedule

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
)

// ExtendMode selects how the factor (1+b) stretches each job's deadline.
type ExtendMode int

// Deadline extension modes.
const (
	// ExtendEndTimes scales end times from the scheduling origin:
	// E_i → (1+b)·E_i. This is the paper's primary formulation (eq. 16).
	ExtendEndTimes ExtendMode = iota
	// ExtendIntervals scales each job's own window instead:
	// E_i → S_i + (1+b)·(E_i − S_i) — the alternative the paper's §II-C
	// Remark mentions. Jobs with late start times are not penalized by
	// their distance from the origin.
	ExtendIntervals
)

// RETConfig tunes the Relaxing-End-Times algorithm (Algorithm 2).
type RETConfig struct {
	BMax  float64 // search ceiling for the extension factor b; default 10
	Eps   float64 // binary-search precision on b; default 0.01
	Delta float64 // δ: additive extension when LPDAR falls short; paper uses 0.1
	// Mode selects the deadline-extension rule; the default is the
	// paper's end-time scaling.
	Mode ExtendMode
	// Gamma is the Quick-Finish cost γ(j); nil selects the paper's
	// γ(j) = j+1.
	Gamma func(j int) float64
	// Solver passes through to the simplex.
	Solver lp.Options
	// Adjust tunes the LPDAR greedy pass; nil selects RETAdjust
	// (deficit-first, demand-capped), which guarantees the δ-loop makes
	// progress on dense networks. Set &VerbatimAdjust for the paper's
	// Algorithm 1 exactly.
	Adjust *AdjustOptions
	// MaxRounds bounds the δ-extension loop; default 200.
	MaxRounds int
	// WarmComponents seeds the binary search with per-component
	// cross-epoch carry — probe basis plus feasibility/Farkas certificates,
	// keyed by Component.Key: feed RETResult.ProbeBases back in. Stale
	// entries self-decline (shape or RHS drift), so the map is always safe
	// to pass.
	WarmComponents map[string]*ComponentBasis
	// Monolithic forces one SUB-RET model over all jobs even when the
	// instance decomposes into independent components at BMax windows —
	// the A/B switch against the decomposed parallel path (the default).
	Monolithic bool
	// Parallelism bounds the worker pool for per-component binary
	// searches and δ-round solves; ≤ 0 selects NumCPU.
	Parallelism int
	// OnProbe, when non-nil, receives every feasibility probe of the
	// binary search as it happens — including probes whose solve failed,
	// which is what makes post-mortem trajectories useful. Callbacks may
	// arrive concurrently from the per-component worker pool, so the
	// function must be safe for concurrent use.
	OnProbe func(ProbeStep)
}

// ProbeStage labels how a feasibility probe of the RET binary search was
// answered. The values are the flight-recorder dump vocabulary.
type ProbeStage string

// Probe stages.
const (
	StageB0     ProbeStage = "b0"     // the b = 0 probe (cold solve, prunable by a carried certificate)
	StageBMax   ProbeStage = "bmax"   // the b = BMax ceiling probe (the extraction chain's seed solve)
	StageBisect ProbeStage = "bisect" // a bisection midpoint, answered by a solve
	StagePruned ProbeStage = "pruned" // answered by a certificate or the window memo — no solve
)

// Probe certificate kinds, recorded in ProbeStep.Cert for pruned probes.
const (
	CertWindow = "window" // window memo: same quantized windows as an earlier probe
	CertPoint  = "point"  // stored feasible point lies within the probe's bounds
	CertFarkas = "farkas" // stored Farkas ray proves the probe infeasible
)

// ProbeStep is one feasibility probe of the RET binary search, recorded
// on RETResult.Probes and delivered to RETConfig.OnProbe. The JSON tags
// are the flight-recorder dump format.
type ProbeStep struct {
	Component string     `json:"component,omitempty"` // Component.Key; empty for monolithic
	B         float64    `json:"b"`
	Stage     ProbeStage `json:"stage"`
	Feasible  bool       `json:"feasible"`
	Warm      bool       `json:"warm"`
	Cert      string     `json:"cert,omitempty"` // how a pruned probe was answered
	Iters     int        `json:"iters"`
	DurUS     float64    `json:"dur_us"`
	Err       string     `json:"err,omitempty"`
}

func (c RETConfig) withDefaults() RETConfig {
	if c.BMax == 0 {
		c.BMax = 10
	}
	if c.Eps == 0 {
		c.Eps = 0.01
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.Gamma == nil {
		c.Gamma = func(j int) float64 { return float64(j + 1) }
	}
	if c.Adjust == nil {
		adj := RETAdjust
		c.Adjust = &adj
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200
	}
	return c
}

// RETResult is the outcome of Algorithm 2.
type RETResult struct {
	BHat float64 // b̂: smallest b with a feasible fractional SUB-RET
	B    float64 // final b after δ-extensions (≥ BHat)

	LP    *Assignment // fractional SUB-RET solution at B
	LPD   *Assignment // truncation of LP (typically leaves jobs unfinished)
	LPDAR *Assignment // truncation + greedy adjustment; completes all jobs

	Rounds     int // δ-extension rounds executed (0 when LPDAR succeeds at b̂)
	LPIters    int // total simplex pivots across all SUB-RET solves
	SearchTime time.Duration
	SolveTime  time.Duration

	// ProbesSolved and ProbesPruned split the search trajectory by how
	// each probe was answered: a simplex solve (stages b0/bmax/bisect)
	// versus a certificate or window-memo check (stage pruned). Their sum
	// is the probe count.
	ProbesSolved int
	ProbesPruned int

	// ProbeBases holds the final probe basis and certificates of every
	// component (the full instance, for a monolithic solve), keyed by
	// Component.Key and tagged with the component's edge set so a caller
	// can invalidate entries per topology event. Feed it back via
	// RETConfig.WarmComponents.
	ProbeBases map[string]*ComponentBasis
	// Components is the number of independent blocks the instance was
	// decomposed into (1 for a monolithic solve or a fully coupled
	// instance).
	Components int
	// Probes is the full binary-search trajectory, in per-component probe
	// order (component sections are contiguous; their relative order is
	// the component order, even though the searches ran in parallel).
	Probes []ProbeStep
	// JobComponents maps each instance job index to the fingerprint
	// (Component.Key) of the component it was solved in — the whole
	// instance's fingerprint for a monolithic solve. Decision audit
	// records use it to explain which block fixed a job's schedule.
	JobComponents []string
	// BHats records each component's own b̂ by fingerprint, so a job's
	// audit trail can name the probe bound that actually constrained its
	// block (the global BHat is the max over these).
	BHats map[string]float64
}

// SolveRET runs the paper's Algorithm 2 on the instance: binary search on
// [0, BMax] for the smallest b̂ making the fractional SUB-RET feasible,
// integerize via LPDAR, and extend b by δ until the integer solution
// completes every job. When the instance decomposes into independent
// components at BMax-extended windows (and RETConfig.Monolithic is off),
// the binary searches run per component on a worker pool and
// b̂ = max over components of b̂_c — every bisection halves the same
// [0, BMax] interval, so the per-component b̂ values lie on one dyadic
// grid and the max equals the monolithic search's answer.
//
// Each feasibility probe of the search is answered as cheaply as an exact
// answer allows: from the window memo (two b values that quantize to the
// same per-job windows pose the same LP), then from a stored witness point
// or Farkas ray, and only then by a re-solve on one chained probe model
// built at BMax windows, where a candidate b only flips variable bounds.
// Every verdict is exact and the schedule comes from a separate extraction
// chain, so b̂ and the returned schedules are bit-identical to a search
// that solves every probe cold.
//
// The instance's grid must extend far enough to cover (1+BMax)-extended
// end times; BuildRETInstance constructs such instances.
func SolveRET(inst *Instance, cfg RETConfig) (*RETResult, error) {
	return solveRET(inst, cfg, retSearch)
}

// retSearchFunc runs one component's binary search for b̂. retSearch is
// the only production search; the seam lets tests run the same Algorithm 2
// around a plain oracle search.
type retSearchFunc func(inst *Instance, cfg RETConfig, env retSearchEnv, comp string) (bhat float64, itersTotal int, steps []ProbeStep, err error)

func solveRET(inst *Instance, cfg RETConfig, search retSearchFunc) (*RETResult, error) {
	cfg = cfg.withDefaults()
	comps := decomposeFor(inst, cfg.Monolithic, retExtendedLast(inst, cfg.BMax, cfg))
	if len(comps) > 1 {
		return solveRETDecomposed(inst, comps, cfg, search)
	}
	observeComponents(comps)
	return solveRETMono(inst, cfg, search)
}

// fullInstanceComponent wraps the whole instance as one component, so a
// monolithic solve participates in the same per-component warm-basis maps
// (fingerprint, edge set, path-set key) as decomposed ones.
func fullInstanceComponent(inst *Instance) *Component {
	idx := make([]int, inst.NumJobs())
	for k := range idx {
		idx[k] = k
	}
	return buildComponent(inst, idx)
}

// resolveCarry picks the cross-epoch warm state for a component key from
// WarmComponents. An entry recorded under a different path-set
// fingerprint is declined outright — its basis and certificates describe
// a model over different columns (column generation discovered different
// paths), so reusing it would be unsound.
func resolveCarry(cfg RETConfig, key, pathsKey string) *ComponentBasis {
	cb := cfg.WarmComponents[key]
	if cb == nil || (cb.PathsKey != "" && cb.PathsKey != pathsKey) {
		return nil
	}
	return cb
}

// retSearchEnv bundles the solving machinery one component's binary
// search runs against.
type retSearchEnv struct {
	chain  *retChain  // extraction chain; its seed solve answers the ceiling probe
	prober *retProber // probe chain, window memo and certificates
}

// retSearch runs the feasibility binary search for b̂ on one instance
// (the whole instance, or one component's sub-instance). comp labels the
// probe trajectory with the component fingerprint (empty for monolithic).
// The returned steps are valid even when the search errors out, so
// post-mortems see the probe that failed.
func retSearch(inst *Instance, cfg RETConfig, env retSearchEnv, comp string) (bhat float64, itersTotal int, steps []ProbeStep, err error) {
	tracer := cfg.Solver.Tracer
	P := env.prober

	// probe answers one feasibility question of the binary search, through
	// the cheapest sound mechanism available:
	//
	//  1. the b = BMax probe IS the extraction chain's seed solve, so
	//     pruning cannot perturb the chain. Its optimum doubles as the
	//     feasible-point certificate: the quick-finish objective
	//     concentrates flow early, so the ceiling optimum typically
	//     satisfies every narrower window down to b̂ and prunes the
	//     feasible half of the bisection outright;
	//  2. the window memo and stored certificates (stage "pruned");
	//  3. the incremental probe chain, falling back to a cold per-b solve
	//     when the chain cannot give an authoritative verdict. The b = 0
	//     probe skips the chain — re-entering the ceiling basis with every
	//     extension column pinned is slower than a cold solve.
	probe := func(b float64, stage ProbeStage) (bool, int, error) {
		start := time.Now()
		var (
			feasible bool
			iters    int
			warm     bool
			cert     string
			err      error
		)
		if stage == StageBMax {
			// A carried Farkas ray may refute the ceiling outright. Only the
			// infeasible direction may bypass the chain solve: an infeasible
			// ceiling aborts the search before any schedule exists, so the
			// prune is identity-free, whereas a feasible ceiling must still
			// come from the chain's own seed solve.
			if P.checkInfeasible(inst, cfg.BMax) {
				cert, stage = CertFarkas, StagePruned
			} else {
				var ok bool
				feasible, _, iters, ok, err = env.chain.solveAt(inst, cfg.BMax)
				if err == nil && !ok {
					var it2 int
					feasible, _, it2, err = solveSubRET(inst, cfg.BMax, cfg, false)
					iters += it2
				}
				if err == nil {
					P.seedFrom(env.chain)
					P.note(inst, cfg.BMax, feasible)
					P.adopt(env.chain.inc.Certificate())
				}
			}
		} else if f, via, ok := P.check(inst, b); ok {
			feasible, cert, stage = f, via, StagePruned
		} else {
			if stage != StageB0 {
				feasible, iters, warm, err = P.solve(inst, b)
			}
			if !warm && err == nil {
				feasible, _, iters, err = solveSubRET(inst, b, cfg, false)
				if err == nil {
					P.note(inst, b, feasible)
				}
			}
		}
		telRETSearchSteps.Inc()
		step := ProbeStep{
			Component: comp,
			B:         b,
			Stage:     stage,
			Feasible:  feasible,
			Warm:      warm,
			Cert:      cert,
			Iters:     iters,
			DurUS:     float64(time.Since(start)) / float64(time.Microsecond),
		}
		if err != nil {
			step.Err = err.Error()
		}
		steps = append(steps, step)
		if cfg.OnProbe != nil {
			cfg.OnProbe(step)
		}
		if err != nil {
			return false, iters, err
		}
		if tracer != nil {
			tracer.Event("ret.search_step",
				telemetry.KV("b", b),
				telemetry.KV("stage", string(stage)),
				telemetry.KV("component", comp),
				telemetry.KV("feasible", feasible),
				telemetry.KV("warm", warm),
				telemetry.KV("cert", cert),
				telemetry.KV("iters", iters))
		}
		return feasible, iters, err
	}

	// Feasibility of SUB-RET is monotone in b: larger b only widens
	// windows. The ceiling probe runs first — it is the extraction
	// chain's seed solve and the source of the feasible-point
	// certificate — then b = 0, then bisection.
	feasMax, iters, err := probe(cfg.BMax, StageBMax)
	itersTotal += iters
	if err != nil {
		return 0, itersTotal, steps, err
	}
	if !feasMax {
		return 0, itersTotal, steps, fmt.Errorf("schedule: RET infeasible even at b=%g — raise BMax or the grid horizon", cfg.BMax)
	}
	feas0, iters, err := probe(0, StageB0)
	itersTotal += iters
	if err != nil {
		return 0, itersTotal, steps, err
	}
	if feas0 {
		return 0, itersTotal, steps, nil
	}
	lo, hi := 0.0, cfg.BMax
	for hi-lo > cfg.Eps {
		mid := (lo + hi) / 2
		feasible, iters, err := probe(mid, StageBisect)
		itersTotal += iters
		if err != nil {
			return 0, itersTotal, steps, err
		}
		if feasible {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, itersTotal, steps, nil
}

// tallyProbes splits a search trajectory into solved vs pruned counts.
func tallyProbes(res *RETResult, steps []ProbeStep) {
	for _, st := range steps {
		if st.Err != "" {
			continue
		}
		if st.Stage == StagePruned {
			res.ProbesPruned++
		} else {
			res.ProbesSolved++
		}
	}
}

// solveRETMono is the single-model Algorithm 2 path.
func solveRETMono(inst *Instance, cfg RETConfig, search retSearchFunc) (*RETResult, error) {
	res := &RETResult{Components: 1}
	retSpan := cfg.Solver.Tracer.Start("schedule.ret")
	// Everything below — search events, probe solves, δ-round solves —
	// is causally inside the RET span.
	cfg.Solver.Tracer = retSpan.Tracer()
	tracer := cfg.Solver.Tracer

	fc := fullInstanceComponent(inst)
	fullKey := fc.Key

	// The extraction chain's solve sequence (cold seed at b = BMax, then
	// incremental re-solves at b̂ and each δ-round) depends only on the
	// instance and the bit-exact b̂, so however the probes were answered
	// the extracted schedules are byte-identical by construction.
	E, err := newRETChain(inst, "sub-ret", cfg)
	if err != nil {
		retSpan.End(telemetry.KV("error", err.Error()))
		return nil, err
	}
	P := newRETProber(inst, cfg, resolveCarry(cfg, fullKey, fc.PathsKey))

	searchStart := time.Now()
	bhat, iters, steps, err := search(inst, cfg, retSearchEnv{chain: E, prober: P}, "")
	res.LPIters += iters
	res.Probes = steps
	tallyProbes(res, steps)
	if err != nil {
		// Even a failed search leaves reusable state: the Farkas ray of an
		// infeasible-at-BMax epoch lets the next epoch refute its ceiling
		// by certificate instead of a cold solve. Export it alongside the
		// error; callers that carry warm state keep it, others discard res.
		res.ProbeBases = map[string]*ComponentBasis{fullKey: P.carry(fc)}
		retSpan.End(telemetry.KV("error", err.Error()))
		return res, err
	}
	res.BHat = bhat
	res.SearchTime = time.Since(searchStart)
	res.BHats = map[string]float64{fullKey: bhat}
	res.JobComponents = make([]string, inst.NumJobs())
	for k := range res.JobComponents {
		res.JobComponents[k] = fullKey
	}

	// Step 2–5: solve at b, integerize, extend by δ while unfinished.
	solveStart := time.Now()
	b := bhat
	for round := 0; ; round++ {
		if round >= cfg.MaxRounds {
			err := fmt.Errorf("schedule: RET did not complete all jobs within %d δ-extensions (b=%g)", cfg.MaxRounds, b)
			retSpan.End(telemetry.KV("error", err.Error()))
			return nil, err
		}
		var (
			feasible bool
			frac     *Assignment
			iters    int
			err      error
		)
		if b <= cfg.BMax {
			feasible, frac, iters, err = E.extractAt(inst, b)
		} else {
			// Past the chain's column set (windows beyond BMax): cold
			// per-b model, as before.
			feasible, frac, iters, err = solveSubRET(inst, b, cfg, true)
		}
		res.LPIters += iters
		if err != nil {
			retSpan.End(telemetry.KV("error", err.Error()))
			return nil, err
		}
		if !feasible {
			// Can happen just above b̂ due to the ε-precision search; δ-extend.
			b += cfg.Delta
			continue
		}
		lpd := frac.Truncate()
		lpdar := AdjustRates(lpd, *cfg.Adjust)
		if lpdar.AllDemandsMet() {
			res.B = b
			res.LP = frac
			res.LPD = lpd
			res.LPDAR = lpdar
			res.Rounds = round
			res.SolveTime = time.Since(solveStart)
			res.ProbeBases = map[string]*ComponentBasis{fullKey: P.carry(fc)}
			telRETDeltaRounds.Add(int64(round))
			telRETFinalB.Set(b)
			retSpan.End(
				telemetry.KV("jobs", inst.NumJobs()),
				telemetry.KV("bhat", res.BHat),
				telemetry.KV("b", res.B),
				telemetry.KV("delta_rounds", round),
				telemetry.KV("lp_iters", res.LPIters),
				telemetry.KV("probes_solved", res.ProbesSolved),
				telemetry.KV("certificate_hits", res.ProbesPruned))
			return res, nil
		}
		if tracer != nil {
			tracer.Event("ret.delta_round",
				telemetry.KV("round", round),
				telemetry.KV("b", b),
				telemetry.KV("next_b", b+cfg.Delta))
		}
		b += cfg.Delta
	}
}

// solveRETDecomposed runs Algorithm 2 per component: parallel binary
// searches, b̂ = max over components, then δ-rounds with per-component
// SUB-RET solves merged before one global LPDAR pass (truncation and
// adjustment see the whole network, exactly as the monolithic path does).
// Should a δ-round push b past BMax — beyond the windows the decomposition
// was computed at, where components may re-couple — the round falls back
// to the full-instance model.
func solveRETDecomposed(inst *Instance, comps []*Component, cfg RETConfig, search retSearchFunc) (*RETResult, error) {
	res := &RETResult{Components: len(comps)}
	retSpan := cfg.Solver.Tracer.Start("schedule.ret")
	// Per-component work is causally inside the RET span; each search
	// worker additionally gets its own component span below, so trace IDs
	// propagate across the worker pool.
	cfg.Solver.Tracer = retSpan.Tracer()
	tracer := cfg.Solver.Tracer
	wall := time.Now()

	type compState struct {
		cfg    RETConfig // per-component copy: warm state and tracer scope differ
		chain  *retChain // extraction chain; survives into the δ-rounds
		prober *retProber
		bhat   float64
		iters  int
		dur    time.Duration
		probes []ProbeStep
	}
	states := make([]compState, len(comps))
	// carry exports every component's probe state for the next epoch.
	carry := func() map[string]*ComponentBasis {
		out := make(map[string]*ComponentBasis, len(comps))
		for i, c := range comps {
			if states[i].prober != nil {
				out[c.Key] = states[i].prober.carry(c)
			}
		}
		return out
	}

	searchStart := time.Now()
	err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		start := time.Now()
		st := &states[i]
		st.cfg = cfg
		compSpan := tracer.Start("schedule.ret_component")
		st.cfg.Solver.Tracer = compSpan.Tracer()
		E, err := newRETChain(comps[i].Inst, "sub-ret", st.cfg)
		if err != nil {
			compSpan.End(telemetry.KV("error", err.Error()))
			return fmt.Errorf("component {%s}: %w", comps[i].Key, err)
		}
		st.chain = E
		st.prober = newRETProber(comps[i].Inst, st.cfg, resolveCarry(cfg, comps[i].Key, comps[i].PathsKey))
		bhat, iters, steps, err := search(comps[i].Inst, st.cfg, retSearchEnv{chain: E, prober: st.prober}, comps[i].Key)
		st.bhat, st.iters, st.probes = bhat, iters, steps
		st.dur = time.Since(start)
		attrs := []telemetry.Attr{
			telemetry.KV("component", comps[i].Key),
			telemetry.KV("jobs", comps[i].Inst.NumJobs()),
			telemetry.KV("bhat", bhat),
			telemetry.KV("iters", iters),
		}
		if err != nil {
			attrs = append(attrs, telemetry.KV("error", err.Error()))
		}
		compSpan.End(attrs...)
		if err != nil {
			return fmt.Errorf("component {%s}: %w", comps[i].Key, err)
		}
		return nil
	})
	for i := range states {
		res.Probes = append(res.Probes, states[i].probes...)
		tallyProbes(res, states[i].probes)
	}
	if err != nil {
		// Export whatever per-component carry state the searches produced
		// before failing (see the monolithic path): a Farkas ray from an
		// overloaded component prunes the same component's ceiling probe
		// next epoch.
		res.ProbeBases = carry()
		retSpan.End(telemetry.KV("error", err.Error()))
		return res, err
	}
	var serial time.Duration
	res.BHats = make(map[string]float64, len(comps))
	res.JobComponents = make([]string, inst.NumJobs())
	for i := range states {
		if states[i].bhat > res.BHat {
			res.BHat = states[i].bhat
		}
		res.LPIters += states[i].iters
		serial += states[i].dur
		res.BHats[comps[i].Key] = states[i].bhat
		for _, k := range comps[i].JobIdx {
			res.JobComponents[k] = comps[i].Key
		}
	}
	res.SearchTime = time.Since(searchStart)

	// Step 2–5 at the global b: per-component incremental extraction
	// solves, merge, then global integerization.
	solveStart := time.Now()
	b := res.BHat
	for round := 0; ; round++ {
		if round >= cfg.MaxRounds {
			err := fmt.Errorf("schedule: RET did not complete all jobs within %d δ-extensions (b=%g)", cfg.MaxRounds, b)
			retSpan.End(telemetry.KV("error", err.Error()))
			return nil, err
		}
		var frac *Assignment
		allFeasible := true
		if b <= cfg.BMax {
			fracs := make([]*Assignment, len(comps))
			feas := make([]bool, len(comps))
			err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
				start := time.Now()
				f, a, iters, err := states[i].chain.extractAt(comps[i].Inst, b)
				feas[i], fracs[i] = f, a
				states[i].iters = iters
				states[i].dur += time.Since(start)
				return err
			})
			if err != nil {
				retSpan.End(telemetry.KV("error", err.Error()))
				return nil, err
			}
			for i := range states {
				res.LPIters += states[i].iters
				if !feas[i] {
					allFeasible = false
				}
			}
			if allFeasible {
				frac = mergeAssignments(inst, comps, fracs)
				frac.SetExtendedWindows(retExtendedLast(inst, b, cfg))
			}
		} else {
			feasible, a, iters, err := solveSubRET(inst, b, cfg, true)
			res.LPIters += iters
			if err != nil {
				retSpan.End(telemetry.KV("error", err.Error()))
				return nil, err
			}
			allFeasible, frac = feasible, a
		}
		if !allFeasible {
			// Can happen just above b̂ due to the ε-precision search; δ-extend.
			b += cfg.Delta
			continue
		}
		lpd := frac.Truncate()
		lpdar := AdjustRates(lpd, *cfg.Adjust)
		if lpdar.AllDemandsMet() {
			res.B = b
			res.LP = frac
			res.LPD = lpd
			res.LPDAR = lpdar
			res.Rounds = round
			res.SolveTime = time.Since(solveStart)
			res.ProbeBases = carry()
			serial = 0
			for i := range states {
				serial += states[i].dur // search + every δ-round solve
			}
			observeDecomposition(comps, time.Since(wall).Seconds(), serial.Seconds())
			telRETDeltaRounds.Add(int64(round))
			telRETFinalB.Set(b)
			retSpan.End(
				telemetry.KV("jobs", inst.NumJobs()),
				telemetry.KV("components", len(comps)),
				telemetry.KV("bhat", res.BHat),
				telemetry.KV("b", res.B),
				telemetry.KV("delta_rounds", round),
				telemetry.KV("lp_iters", res.LPIters),
				telemetry.KV("probes_solved", res.ProbesSolved),
				telemetry.KV("certificate_hits", res.ProbesPruned))
			return res, nil
		}
		if tracer != nil {
			tracer.Event("ret.delta_round",
				telemetry.KV("round", round),
				telemetry.KV("b", b),
				telemetry.KV("next_b", b+cfg.Delta))
		}
		b += cfg.Delta
	}
}

// buildSubRETModel assembles the fractional SUB-RET program (eqs. 14–16
// with (5) in place of (10)) at the given per-job windows. The demand
// rows are the first rows of the model (row k is job k's), and the
// returned map records the capacity row of each loaded (edge, slice) —
// the layout the column-generation pricer relies on.
func buildSubRETModel(name string, inst *Instance, extLast []int, cfg RETConfig) (*lp.Model, flowVars, map[capKey]lp.RowID, error) {
	m := lp.NewModel(name, lp.Minimize)
	xvars, err := addFlowVars(m, inst, extLast, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	// Quick-Finish objective (14): Σ_j γ(j)·Σ x.
	for k := range inst.Jobs {
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.SetObj(v, cfg.Gamma(j))
		})
	}
	// Demand satisfaction (15): Σ x·LEN ≥ D_i.
	for k, jb := range inst.Jobs {
		r := m.AddRow(fmt.Sprintf("demand%d", jb.ID), lp.GE, jb.Size)
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.AddTerm(r, v, inst.Grid.Len(j))
		})
	}
	capRows := addCapacityRows(m, inst, xvars, 0)
	return m, xvars, capRows, nil
}

// solveSubRET builds and solves the fractional SUB-RET LP under extension
// factor b as a standalone per-b model. It reports feasibility; the
// assignment is extracted only when extract is true.
func solveSubRET(inst *Instance, b float64, cfg RETConfig, extract bool) (bool, *Assignment, int, error) {
	extLast := retExtendedLast(inst, b, cfg)
	m, xvars, _, err := buildSubRETModel("sub-ret", inst, extLast, cfg)
	if err != nil {
		return false, nil, 0, err
	}
	sol, err := m.SolveWith(cfg.Solver)
	if err != nil {
		return false, nil, 0, fmt.Errorf("schedule: SUB-RET(b=%g): %w", b, err)
	}
	switch sol.Status {
	case lp.Optimal:
		if !extract {
			return true, nil, sol.Iters, nil
		}
		a := extractAssignment(inst, xvars, sol)
		a.SetExtendedWindows(extLast)
		return true, a, sol.Iters, nil
	case lp.Infeasible:
		return false, nil, sol.Iters, nil
	default:
		return false, nil, sol.Iters, fmt.Errorf("schedule: SUB-RET(b=%g): solver returned %v", b, sol.Status)
	}
}

// retExtendedLast computes each job's last usable slice under extension
// factor b — the (1+b)-scaled deadline mapped onto the grid with the same
// rounding convention as the original windows, clamped to the grid and
// never shrinking the original window.
func retExtendedLast(inst *Instance, b float64, cfg RETConfig) []int {
	ns := inst.Grid.Num()
	extLast := make([]int, inst.NumJobs())
	for k, jb := range inst.Jobs {
		var extEnd float64
		if cfg.Mode == ExtendIntervals {
			extEnd = jb.Start + (jb.End-jb.Start)*(1+b)
		} else {
			extEnd = inst.Grid.ExtendFactor(jb.End, b)
		}
		// The last usable slice must end at or before the (extended) end time.
		_, last, ok := inst.Grid.Window(jb.Start, extEnd)
		if !ok {
			last = -1
		}
		if last >= ns {
			last = ns - 1
		}
		// The extended end must not shrink the original window.
		if _, origLast := inst.Window(k); last < origLast {
			last = origLast
		}
		extLast[k] = last
	}
	return extLast
}

// retChain is a persistent SUB-RET model over BMax-extended windows,
// re-solved incrementally as b moves. A candidate b only flips variable
// bounds — out-of-window flow pinned to [0,0], re-opened flow to [0,∞) —
// which is feasibility-equivalent to the per-b model solveSubRET would
// build (a variable fixed at zero contributes nothing to any row). The
// lp.Incremental underneath chains the basis across solves, including
// after infeasible verdicts.
type retChain struct {
	cfg     RETConfig
	m       *lp.Model
	xv      flowVars
	maxLast []int // extended windows at BMax (the model's variable set)
	curLast []int // windows currently applied via bounds
	inc     *lp.Incremental
}

// newRETChain builds the chain model at BMax windows.
func newRETChain(inst *Instance, name string, cfg RETConfig) (*retChain, error) {
	maxLast := retExtendedLast(inst, cfg.BMax, cfg)
	m, xv, _, err := buildSubRETModel(name, inst, maxLast, cfg)
	if err != nil {
		return nil, err
	}
	cur := make([]int, len(maxLast))
	copy(cur, maxLast)
	return &retChain{
		cfg:     cfg,
		m:       m,
		xv:      xv,
		maxLast: maxLast,
		curLast: cur,
		inc:     lp.NewIncremental(m, cfg.Solver),
	}, nil
}

// applyLast flips variable bounds to realize the given per-job windows.
func (ch *retChain) applyLast(last []int) {
	for k := range last {
		if last[k] == ch.curLast[k] {
			continue
		}
		for p := range ch.xv[k] {
			for j, v := range ch.xv[k][p] {
				if v < 0 {
					continue
				}
				switch {
				case j > last[k]:
					ch.m.SetBounds(v, 0, 0) // outside the b-window: pinned
				case j > ch.curLast[k]:
					ch.m.SetBounds(v, 0, lp.Inf) // re-opened by a larger b
				}
			}
		}
		ch.curLast[k] = last[k]
	}
}

// solveAt re-solves the chain at extension factor b. ok is false when the
// solver returned a status the chain cannot interpret (iteration/time
// limit, numerical) — the caller then needs an authoritative cold solve.
func (ch *retChain) solveAt(inst *Instance, b float64) (feasible bool, sol *lp.Solution, iters int, ok bool, err error) {
	ch.applyLast(retExtendedLast(inst, b, ch.cfg))
	before := ch.inc.Iters()
	sol, err = ch.inc.Solve()
	iters = ch.inc.Iters() - before
	if err != nil {
		return false, nil, iters, false, fmt.Errorf("schedule: SUB-RET(b=%g): %w", b, err)
	}
	switch sol.Status {
	case lp.Optimal:
		return true, sol, iters, true, nil
	case lp.Infeasible:
		return false, sol, iters, true, nil
	default:
		return false, nil, iters, false, nil
	}
}

// extractAt solves at b and extracts the fractional assignment. Residual
// values on pinned (out-of-window) columns are zeroed, so the assignment
// matches what a per-b model would structurally enforce.
func (ch *retChain) extractAt(inst *Instance, b float64) (bool, *Assignment, int, error) {
	feasible, sol, iters, ok, err := ch.solveAt(inst, b)
	if err != nil {
		return false, nil, iters, err
	}
	if !ok {
		// Authoritative fallback, mirroring the probe path.
		f, a, it2, err := solveSubRET(inst, b, ch.cfg, true)
		return f, a, iters + it2, err
	}
	if !feasible {
		return false, nil, iters, nil
	}
	a := extractAssignment(inst, ch.xv, sol)
	for k, last := range ch.curLast {
		for p := range a.X[k] {
			row := a.X[k][p]
			for j := last + 1; j < len(row); j++ {
				row[j] = 0
			}
		}
	}
	a.SetExtendedWindows(retExtendedLast(inst, b, ch.cfg))
	return true, a, iters, nil
}

// lastKey fingerprints a per-job window vector for the probe memo: two b
// values quantizing to the same windows pose the exact same LP.
func lastKey(last []int) string {
	var sb strings.Builder
	sb.Grow(4 * len(last))
	for _, v := range last {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}

// retProber answers feasibility probes for one component: first from the
// window memo, then from stored certificates, and only then by an
// incremental solve on its own probe chain. The chain is separate from
// the extraction chain so probe traffic cannot perturb the extraction
// solve sequence (which is what keeps schedules byte-identical across
// configurations).
type retProber struct {
	inst *Instance
	cfg  RETConfig

	seed     *lp.Basis // first-solve warm start: cross-epoch carry, else the extraction chain's ceiling basis
	chain    *retChain // lazily built: a fully pruned search never pays for it
	chainErr bool

	memo   map[string]bool // window fingerprint → feasibility verdict
	feas   *lp.Certificate // most recent feasible witness (smallest proven b)
	infeas *lp.Certificate // most recent Farkas ray (largest refuted b)
}

// newRETProber wires the prober with optional cross-epoch carry.
func newRETProber(inst *Instance, cfg RETConfig, carry *ComponentBasis) *retProber {
	p := &retProber{inst: inst, cfg: cfg, memo: make(map[string]bool)}
	if carry != nil {
		p.seed = carry.Basis
		p.feas = carry.Feas
		p.infeas = carry.Infeas
	}
	return p
}

// seedFrom adopts the extraction chain's current basis as the probe
// chain's first-solve warm start, unless a cross-epoch seed already won.
func (p *retProber) seedFrom(E *retChain) {
	if p.seed == nil {
		p.seed = E.inc.Basis()
	}
}

// adopt stores the certificate of a solved probe — the extraction
// chain's ceiling solve or a probe-chain re-solve. Both directions replace
// any cross-epoch carry: the fresh certificate was computed on this
// epoch's instance. Within the bisection the latest feasible witness is
// the smallest proven b and the latest Farkas ray the largest refuted b,
// the ones most likely to answer the next midpoint.
func (p *retProber) adopt(c *lp.Certificate) {
	if c == nil {
		return
	}
	if c.Feasible() {
		p.feas = c
	} else {
		p.infeas = c
	}
}

// note records a solved verdict in the window memo.
func (p *retProber) note(inst *Instance, b float64, feasible bool) {
	p.memo[lastKey(retExtendedLast(inst, b, p.cfg))] = feasible
}

func (p *retProber) ensureChain() *retChain {
	if p.chain == nil && !p.chainErr {
		ch, err := newRETChain(p.inst, "sub-ret-probe", p.cfg)
		if err != nil {
			p.chainErr = true
			return nil
		}
		if p.seed != nil {
			ch.inc.SeedBasis(p.seed)
		}
		p.chain = ch
	}
	return p.chain
}

// checkInfeasible tries to REFUTE feasibility at b from the stored
// Farkas ray alone, for the ceiling probe: a feasible ceiling must still
// be established by the extraction chain's seed solve, but an infeasible
// one aborts the whole search, so answering it by certificate skips the
// most expensive cold solve of a repeatedly-overloaded epoch sequence.
func (p *retProber) checkInfeasible(inst *Instance, b float64) bool {
	if p.infeas == nil {
		return false
	}
	ch := p.ensureChain()
	if ch == nil {
		return false
	}
	ch.applyLast(retExtendedLast(inst, b, p.cfg))
	f, ok := ch.m.CheckFeasibleWithCertificate(p.infeas)
	return ok && !f
}

// check tries to answer the probe at b without a solve: window memo, then
// stored feasible point, then stored Farkas ray. ok is false when nothing
// applies; answers are exact (certificates self-verify against the
// current bounds, so a stale one declines rather than lies).
func (p *retProber) check(inst *Instance, b float64) (feasible bool, via string, ok bool) {
	last := retExtendedLast(inst, b, p.cfg)
	key := lastKey(last)
	if v, hit := p.memo[key]; hit {
		return v, CertWindow, true
	}
	if p.feas == nil && p.infeas == nil {
		return false, "", false
	}
	ch := p.ensureChain()
	if ch == nil {
		return false, "", false
	}
	ch.applyLast(last)
	if f, ok := ch.m.CheckFeasibleWithCertificate(p.feas); ok {
		p.memo[key] = f
		return f, CertPoint, true
	}
	if f, ok := ch.m.CheckFeasibleWithCertificate(p.infeas); ok {
		p.memo[key] = f
		return f, CertFarkas, true
	}
	return false, "", false
}

// solve answers the probe at b on the incremental probe chain. ok is
// false when the chain could not give an authoritative verdict — the
// caller then falls back to a cold per-b solve.
func (p *retProber) solve(inst *Instance, b float64) (feasible bool, iters int, ok bool, err error) {
	ch := p.ensureChain()
	if ch == nil {
		return false, 0, false, nil
	}
	feasible, _, iters, ok, err = ch.solveAt(inst, b)
	if err != nil {
		return false, iters, false, fmt.Errorf("schedule: SUB-RET probe(b=%g): %w", b, err)
	}
	if ok {
		p.memo[lastKey(ch.curLast)] = feasible
		p.adopt(ch.inc.Certificate())
	}
	return feasible, iters, ok, nil
}

// exportBasis snapshots the probe chain's basis for cross-epoch carry,
// falling back to the seed (the extraction chain's ceiling basis, or the
// carried entry) when every probe was pruned and the chain never solved.
func (p *retProber) exportBasis() *lp.Basis {
	if p.chain != nil {
		if b := p.chain.inc.Basis(); b != nil {
			return b
		}
	}
	return p.seed
}

// carry snapshots the prober's cross-epoch state for component c.
func (p *retProber) carry(c *Component) *ComponentBasis {
	return &ComponentBasis{Basis: p.exportBasis(), Edges: c.Edges, PathsKey: c.PathsKey, Feas: p.feas, Infeas: p.infeas}
}

// BuildRETInstance constructs an instance whose uniform grid (slices of
// length sliceLen starting at origin 0) covers every job's
// (1+bMax)-extended end time, as SolveRET requires. k is the number of
// allowed paths per job.
func BuildRETInstance(g *netgraph.Graph, jobs []job.Job, sliceLen float64, k int, bMax float64) (*Instance, error) {
	return BuildRETInstanceOpts(g, jobs, sliceLen, k, bMax, InstanceOptions{})
}

// BuildRETInstanceOpts is BuildRETInstance with full path-construction
// control; opts.K defaults to k when unset.
func BuildRETInstanceOpts(g *netgraph.Graph, jobs []job.Job, sliceLen float64, k int, bMax float64, opts InstanceOptions) (*Instance, error) {
	if sliceLen <= 0 {
		return nil, fmt.Errorf("schedule: slice length must be positive, got %g", sliceLen)
	}
	horizon := (1 + bMax) * job.MaxEnd(jobs)
	n := timeslice.CoverUntil(0, sliceLen, horizon)
	if n == 0 {
		n = 1
	}
	grid, err := timeslice.Uniform(0, sliceLen, n)
	if err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		opts.K = k
	}
	return NewInstanceOpts(g, grid, jobs, opts)
}
