package lp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wavesched/internal/telemetry"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	Numerical
	// TimeLimit means the wall-clock budget (Options.TimeLimit) expired
	// before the solve finished; the accompanying error is ErrTimeLimit.
	TimeLimit
)

// ErrTimeLimit is returned (possibly wrapped) when a solve exceeds
// Options.TimeLimit. Callers implementing degradation chains should test
// for it with errors.Is.
var ErrTimeLimit = errors.New("lp: time limit exceeded")

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Numerical:
		return "numerical failure"
	case TimeLimit:
		return "time limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Pricing selects the entering-variable rule.
type Pricing int

// Pricing rules.
const (
	// Auto — the zero value — selects a rule from the model size:
	// Dantzig below autoPricingThreshold (small models pivot so few times
	// that clever pricing cannot pay for itself), PartialDantzig from
	// there up (on mid-size RET models the pricing scan is the per-pivot
	// bottleneck, so the rotating window's cheap iterations beat devex's
	// 2–3x pivot reduction), and Devex once columns+rows reach
	// autoDevexThreshold, where FTRAN/BTRAN dominate each pivot and
	// cutting the pivot count is what matters. Set an explicit rule to
	// override.
	Auto Pricing = iota
	// Dantzig picks the eligible column with the most attractive reduced
	// cost, falling back to Bland's rule after a long degenerate streak.
	Dantzig
	// Bland always picks the lowest-index eligible column; slow but
	// guarantees termination.
	Bland
	// PartialDantzig scans a rotating window of columns and takes the best
	// eligible one, falling back to a full scan when the window has none.
	// Cheaper per iteration than Dantzig on wide problems at the cost of
	// somewhat less greedy pivots.
	PartialDantzig
	// Devex approximates steepest-edge pricing with reference-framework
	// weights (Forrest–Goldfarb): the entering column maximizes d²/γ, and
	// the weights γ are updated from the pivot row each iteration. It
	// typically cuts pivot counts by 2–4x on the wide, degenerate RET
	// models at the cost of one extra BTRAN plus one column sweep per
	// pivot. Weight overflow resets the framework (lp_devex_resets_total).
	Devex
)

// autoPricingThreshold is the total size (columns + rows) at which Auto
// pricing switches from Dantzig to PartialDantzig.
const autoPricingThreshold = 2048

// autoDevexThreshold is the total size at which Auto switches from
// PartialDantzig to Devex: each pivot's FTRAN/BTRAN now dwarfs the
// pricing scan, so the rule that takes fewest pivots wins.
const autoDevexThreshold = 32768

// devexResetLimit bounds the devex reference weights; beyond it the
// framework restarts from unit weights (the classic overflow guard).
const devexResetLimit = 1e7

// String names the pricing rule for span attributes and logs.
func (p Pricing) String() string {
	switch p {
	case Auto:
		return "auto"
	case Dantzig:
		return "dantzig"
	case Bland:
		return "bland"
	case PartialDantzig:
		return "partial_dantzig"
	case Devex:
		return "devex"
	}
	return fmt.Sprintf("Pricing(%d)", int(p))
}

// Options tunes the simplex solver. The zero value selects sensible
// defaults.
type Options struct {
	MaxIter       int     // pivot limit; ≤0 selects 200·(rows+cols)+10000
	Tol           float64 // optimality/feasibility tolerance; ≤0 selects 1e-7
	PivotTol      float64 // minimum pivot magnitude; ≤0 selects 1e-8
	RefactorEvery int     // eta updates between refactorizations; ≤0 selects 64
	Pricing       Pricing
	DegenLimit    int // degenerate pivots before the Bland fallback; ≤0 selects 1000
	// TimeLimit is the wall-clock budget for one solve. When it expires the
	// primal and dual pivot loops abort with ErrTimeLimit (Status
	// TimeLimit). Zero means unlimited. The deadline is checked every
	// deadlineCheckEvery pivots, so very short limits overshoot by at most
	// that many pivots.
	TimeLimit time.Duration
	// Presolve applies safe model reductions (fixed-variable substitution,
	// singleton-row bound tightening, empty-row elimination) before the
	// simplex. Duals of presolve-eliminated rows are reported as 0.
	Presolve bool
	// Tracer, when non-nil, receives a span per solve plus presolve and
	// infeasibility diagnostic events. Nil disables tracing at the cost
	// of a nil check.
	Tracer *telemetry.Tracer
	// WarmStart, when non-nil, seeds the solve from a basis captured by an
	// earlier solve (Solution.Basis) instead of the two-phase cold start:
	// the basis is re-factorized and the dual simplex restores primal
	// feasibility, followed by a primal clean-up pass for objective
	// changes. Intended for repeated solves of one model (or structurally
	// identical models) after RHS, variable-bound, or objective mutations.
	// A structural mismatch, singular basis, or numerical trouble falls
	// back to the cold path (counted in lp_warmstart_fallbacks_total), so
	// supplying a stale basis is safe — just slower.
	WarmStart *Basis
	// CaptureBasis records the final basis on Solution.Basis for Optimal
	// and Infeasible outcomes. Implied by WarmStart != nil. Ignored (no
	// basis captured) when Presolve is active, since the reduced model's
	// basis does not map back to the caller's variables.
	CaptureBasis bool
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200*(m+n) + 10000
	}
	if o.Pricing == Auto {
		switch {
		case m+n >= autoDevexThreshold:
			o.Pricing = Devex
		case m+n >= autoPricingThreshold:
			o.Pricing = PartialDantzig
		default:
			o.Pricing = Dantzig
		}
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.PivotTol <= 0 {
		o.PivotTol = 1e-8
	}
	if o.RefactorEvery <= 0 {
		o.RefactorEvery = 64
	}
	if o.DegenLimit <= 0 {
		o.DegenLimit = 1000
	}
	return o
}

// variable states within the simplex.
const (
	stAtLower int8 = iota
	stAtUpper
	stBasic
)

// simplex is the working state of a bounded-variable revised simplex solve
// over min c·x, A x (+ artificials) = b, l ≤ x ≤ u.
type simplex struct {
	opt     Options
	a       *cscMatrix // structural + slack columns
	b       []float64
	c       []float64 // current-phase costs, length nTotal
	l       []float64 // length nTotal
	u       []float64 // length nTotal
	m       int       // rows
	n       int       // structural + slack columns
	nStruct int       // structural columns only (first nStruct of n)
	art     []float64 // artificial signs; artificial i is column n+i = sign·e_i
	artIdx  []int     // artIdx[i] = i: the row pattern of artificial i
	cMin    []float64 // phase-2 (minimization) costs, length nTotal
	negate  bool      // original sense was Maximize; negate objective on extract

	basis  []int  // slot -> column
	pos    []int  // column -> slot, or -1
	state  []int8 // column -> stAtLower/stAtUpper/stBasic
	xB     []float64
	factor basisFactor

	// refactorize workspace: the LU factors are rebuilt in place, from
	// basis columns listed in luRows/luVals.
	lu     *luFactors
	luRows [][]int
	luVals [][]float64

	iters       int
	boundFlips  int // pivots resolved as bound flips (no basis change)
	degenRun    int
	blandMode   bool
	cursor      int       // rotating start for partial pricing
	gamma       []float64 // devex reference weights, length nTotal; nil until first devex price
	devexResets int       // reference-framework restarts this solve

	// Infeasibility provenance, for Farkas-certificate extraction.
	phase1      bool      // state still holds phase-1 costs (cold infeasible exit)
	infeasRow   int       // dual-simplex exit row, or -1
	infeasSigma float64   // dual-simplex exit direction (±1)
	scratch     []float64 // length m
	yRow        []float64 // BTRAN result, by row
	wBuf        []float64 // ratio-test column buffer, by slot
	rho         []float64 // dual-simplex pivot-row buffer, length m
	deadline    time.Time // zero value: no wall-clock limit
	untilTick   int       // pivots until the next wall-clock check
}

// deadlineCheckEvery spaces out the wall-clock checks so the time syscall
// stays off the per-pivot hot path.
const deadlineCheckEvery = 64

// deadlineExceeded reports whether the wall-clock budget has expired. It
// only looks at the clock once every deadlineCheckEvery calls — and on the
// first call of each pivot loop, so an already-expired deadline aborts
// before any pivot.
func (s *simplex) deadlineExceeded() bool {
	if s.deadline.IsZero() {
		return false
	}
	if s.untilTick > 0 {
		s.untilTick--
		return false
	}
	s.untilTick = deadlineCheckEvery - 1
	return time.Now().After(s.deadline)
}

// nTotal is the column count including artificials.
func (s *simplex) nTotal() int { return s.n + s.m }

// colInto scatters column j (structural, slack, or artificial) into the
// dense length-m vector out, which must be zeroed by the caller afterwards.
func (s *simplex) colInto(j int, out []float64) {
	if j < s.n {
		rows, vals := s.a.col(j)
		for k, r := range rows {
			out[r] += vals[k]
		}
		return
	}
	i := j - s.n
	out[i] += s.art[i]
}

// colDotY returns the dot product of column j with the row-indexed vector y.
func (s *simplex) colDotY(j int, y []float64) float64 {
	if j < s.n {
		return s.a.colDot(j, y)
	}
	i := j - s.n
	return s.art[i] * y[i]
}

// nonbasicValue returns the current value of a nonbasic column.
func (s *simplex) nonbasicValue(j int) float64 {
	if s.state[j] == stAtUpper {
		return s.u[j]
	}
	return s.l[j]
}

// refactorize rebuilds the LU factorization from the current basis and
// recomputes the basic values from scratch. The factors are rebuilt in
// place in s.lu, so on errSingular the factorization is gone: s.factor is
// left cleared, and the state must not be ftran'd or btran'd again before
// a successful refactorize.
func (s *simplex) refactorize() error {
	colRows, colVals := s.luRows, s.luVals
	for slot, j := range s.basis {
		if j < s.n {
			colRows[slot], colVals[slot] = s.a.col(j)
		} else {
			i := j - s.n
			colRows[slot], colVals[slot] = s.artIdx[i:i+1], s.art[i:i+1]
		}
	}
	etas := s.factor.etas[:0]
	s.factor = basisFactor{}
	if err := s.lu.factorize(s.m, colRows, colVals); err != nil {
		return err
	}
	s.factor = basisFactor{lu: s.lu, etas: etas}
	s.recomputeXB()
	return nil
}

// recomputeXB sets xB = B⁻¹(b − N x_N) from scratch.
func (s *simplex) recomputeXB() {
	r := s.scratch
	copy(r, s.b)
	for j := 0; j < s.nTotal(); j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		if j < s.n {
			s.a.addColTimes(j, -v, r)
		} else {
			r[j-s.n] -= v * s.art[j-s.n]
		}
	}
	s.factor.ftran(r)
	copy(s.xB, r)
	for i := range r {
		r[i] = 0
	}
}

// price computes duals for the current basis and returns the entering
// column, or -1 when the current point is optimal for the phase costs.
func (s *simplex) price() int {
	// y = B⁻ᵀ c_B, computed slot-indexed then transformed to row-indexed.
	y := s.yRow
	for slot, j := range s.basis {
		y[slot] = s.c[j]
	}
	s.factor.btran(y)

	tol := s.opt.Tol
	useBland := s.blandMode || s.opt.Pricing == Bland

	// score returns the pricing merit of column j, or 0 when ineligible.
	score := func(j int) float64 {
		st := s.state[j]
		if st == stBasic || s.l[j] == s.u[j] {
			return 0
		}
		d := s.c[j] - s.colDotY(j, y)
		if st == stAtLower {
			d = -d // want d < -tol
		}
		if d <= tol {
			return 0
		}
		return d
	}

	if s.opt.Pricing == Devex && !useBland {
		// Devex: maximize d²/γ over eligible columns. Eligibility is the
		// same d > tol test as Dantzig; only the merit differs.
		if s.gamma == nil {
			s.resetDevex()
		}
		best := -1
		bestMerit := 0.0
		for j := 0; j < s.nTotal(); j++ {
			d := score(j)
			if d <= 0 {
				continue
			}
			if merit := d * d / s.gamma[j]; merit > bestMerit {
				bestMerit = merit
				best = j
			}
		}
		return best
	}

	if s.opt.Pricing == PartialDantzig && !useBland {
		n := s.nTotal()
		window := n / 8
		if window < 256 {
			window = 256
		}
		// Scan from the rotating cursor until an eligible column appears,
		// then finish the current window and take the best seen.
		best := -1
		bestScore := tol
		scanned := 0
		remaining := -1 // columns left to scan after the first hit
		for scanned < n {
			j := (s.cursor + scanned) % n
			scanned++
			if sc := score(j); sc > bestScore {
				bestScore = sc
				best = j
				if remaining < 0 {
					remaining = window
				}
			}
			if remaining >= 0 {
				remaining--
				if remaining <= 0 {
					break
				}
			}
		}
		if best >= 0 {
			s.cursor = (best + 1) % n
		}
		return best
	}

	best := -1
	bestScore := tol
	for j := 0; j < s.nTotal(); j++ {
		sc := score(j)
		if sc <= 0 {
			continue
		}
		if useBland {
			return j
		}
		if sc > bestScore {
			bestScore = sc
			best = j
		}
	}
	return best
}

// step performs one simplex iteration with entering column q. It returns
// false with status when the phase ends (unbounded), true otherwise.
func (s *simplex) step(q int) (ok bool, status Status, err error) {
	m := s.m
	w := s.wBuf
	for i := range w {
		w[i] = 0
	}
	s.colInto(q, w)
	s.factor.ftran(w)

	dir := 1.0
	if s.state[q] == stAtUpper {
		dir = -1
	}
	pivTol := s.opt.PivotTol

	// Ratio test. t is how far the entering variable moves from its bound.
	tBest := math.Inf(1)
	if !math.IsInf(s.u[q], 1) {
		tBest = s.u[q] - s.l[q] // bound flip distance
	}
	leave := -1 // slot of the leaving variable, or -1 for a bound flip
	leaveAtUpper := false
	for i := 0; i < m; i++ {
		wi := dir * w[i]
		bj := s.basis[i]
		var t float64
		var atUpper bool
		if wi > pivTol {
			t = (s.xB[i] - s.l[bj]) / wi
			atUpper = false
		} else if wi < -pivTol {
			if math.IsInf(s.u[bj], 1) {
				continue
			}
			t = (s.u[bj] - s.xB[i]) / (-wi)
			atUpper = true
		} else {
			continue
		}
		if t < 0 {
			t = 0 // basic variable slightly out of bounds: degenerate pivot
		}
		if t < tBest-1e-12 ||
			(t < tBest+1e-12 && leave >= 0 && s.betterLeaving(i, leave, w)) {
			tBest = t
			leave = i
			leaveAtUpper = atUpper
		}
	}

	if math.IsInf(tBest, 1) {
		return false, Unbounded, nil
	}
	if tBest <= s.opt.Tol {
		s.degenRun++
		if s.degenRun > s.opt.DegenLimit {
			s.blandMode = true
		}
	} else {
		s.degenRun = 0
	}

	// Update basic values: xB ← xB − dir·t·w.
	if tBest != 0 {
		for i := 0; i < m; i++ {
			if w[i] != 0 {
				s.xB[i] -= dir * tBest * w[i]
			}
		}
	}

	if leave < 0 {
		// Bound flip: q moves to its opposite bound; the basis is unchanged.
		if s.state[q] == stAtLower {
			s.state[q] = stAtUpper
		} else {
			s.state[q] = stAtLower
		}
		s.iters++
		s.boundFlips++
		return true, Optimal, nil
	}

	if s.opt.Pricing == Devex && !s.blandMode && s.gamma != nil {
		s.devexUpdate(q, leave, w)
	}

	// Basis change.
	out := s.basis[leave]
	if leaveAtUpper {
		s.state[out] = stAtUpper
		s.xB[leave] = 0
	} else {
		s.state[out] = stAtLower
	}
	var enterVal float64
	if dir > 0 {
		enterVal = s.l[q] + tBest
	} else {
		enterVal = s.u[q] - tBest
	}
	s.pos[out] = -1
	s.basis[leave] = q
	s.pos[q] = leave
	s.state[q] = stBasic
	s.xB[leave] = enterVal
	s.factor.push(leave, w)
	s.iters++

	if len(s.factor.etas) >= s.opt.RefactorEvery {
		if err := s.refactorize(); err != nil {
			return false, Numerical, err
		}
	}
	return true, Optimal, nil
}

// betterLeaving is the tie-break for the ratio test: prefer larger pivot
// magnitude for numerical stability, or the smallest basis column when the
// Bland fallback is active.
func (s *simplex) betterLeaving(cand, incumbent int, w []float64) bool {
	if s.blandMode {
		return s.basis[cand] < s.basis[incumbent]
	}
	return math.Abs(w[cand]) > math.Abs(w[incumbent])
}

// resetDevex restarts the devex reference framework: every column weight
// returns to 1, making the next pivot plain Dantzig until the weights
// re-accumulate curvature information.
func (s *simplex) resetDevex() {
	if s.gamma == nil {
		s.gamma = make([]float64, s.nTotal())
	}
	for j := range s.gamma {
		s.gamma[j] = 1
	}
}

// devexUpdate applies the Forrest–Goldfarb reference-weight update after a
// basis-changing pivot: entering column q, leaving slot leave, pivot
// column w = B⁻¹a_q. It needs the pivot row α_r (one BTRAN plus a column
// sweep) and must run before the basis is mutated.
func (s *simplex) devexUpdate(q, leave int, w []float64) {
	alpha := w[leave]
	if alpha == 0 {
		return
	}
	gq := s.gamma[q]
	rho := s.rho
	for i := range rho {
		rho[i] = 0
	}
	rho[leave] = 1
	s.factor.btran(rho)

	inv2 := 1 / (alpha * alpha)
	maxW := 1.0
	for j := 0; j < s.nTotal(); j++ {
		if j == q || s.state[j] == stBasic || s.l[j] == s.u[j] {
			continue
		}
		arj := s.colDotY(j, rho)
		if arj == 0 {
			continue
		}
		if cand := arj * arj * inv2 * gq; cand > s.gamma[j] {
			s.gamma[j] = cand
			if cand > maxW {
				maxW = cand
			}
		}
	}
	gOut := gq * inv2
	if gOut < 1 {
		gOut = 1
	}
	s.gamma[s.basis[leave]] = gOut
	if gOut > maxW {
		maxW = gOut
	}
	for i := range rho {
		rho[i] = 0
	}
	if maxW > devexResetLimit {
		s.resetDevex()
		s.devexResets++
		telDevexResets.Inc()
	}
}

// runPhase iterates until optimality, unboundedness, or the iteration
// limit for the current cost vector.
func (s *simplex) runPhase() (Status, error) {
	for {
		if s.iters >= s.opt.MaxIter {
			return IterLimit, nil
		}
		if s.deadlineExceeded() {
			telTimeouts.Inc()
			return TimeLimit, ErrTimeLimit
		}
		q := s.price()
		if q < 0 {
			return Optimal, nil
		}
		ok, status, err := s.step(q)
		if err != nil {
			return Numerical, err
		}
		if !ok {
			return status, nil
		}
	}
}

// objective returns c·x for the current phase costs and point.
func (s *simplex) objective() float64 {
	obj := 0.0
	for j := 0; j < s.nTotal(); j++ {
		if s.c[j] == 0 {
			continue
		}
		obj += s.c[j] * s.value(j)
	}
	return obj
}

// value returns the current value of any column.
func (s *simplex) value(j int) float64 {
	if s.state[j] == stBasic {
		return s.xB[s.pos[j]]
	}
	return s.nonbasicValue(j)
}
