// Package controller implements the paper's network-controller framework
// (Section II-A): job requests are collected continuously, and every τ
// time units the controller runs admission control and scheduling over all
// known jobs — new arrivals and admitted-but-unfinished transfers alike —
// then commits integer wavelength assignments for the next period.
//
// Two policies mirror the paper's two algorithms for the overloaded case:
// PolicyMaxThroughput guarantees end times and reduces effective job sizes
// (action ii), and PolicyRET extends end times so every job completes in
// full (action iii).
//
// The controller also models link failures: LinkDown/LinkUp events credit
// the bytes already delivered under the committed schedule, reroute or
// drop the transfers the failure disrupts, and replan the rest of the
// period over the residual topology. When the regular policy pipeline
// cannot produce a plan (solver failure, timeout, or a panic in a plugged
// component), the epoch degrades through a fixed chain — LPDAR → LPD →
// carry forward the previous schedule — instead of halting the network.
package controller

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
)

// Package-level instruments on the default telemetry registry.
var (
	telEpochSeconds = telemetry.Default().Histogram("controller_epoch_seconds",
		"Wall time of one controller scheduling epoch in seconds.", nil)
	telEpochs = telemetry.Default().Counter("controller_epochs_total",
		"Scheduling epochs executed.")
	telAdmitted = telemetry.Default().Counter("controller_jobs_admitted_total",
		"Requests admitted into the active set.")
	telRejected = telemetry.Default().Counter("controller_jobs_rejected_total",
		"Requests rejected (admission control or unusable window).")
	telCompleted = telemetry.Default().Counter("controller_jobs_completed_total",
		"Jobs whose full demand was delivered.")
	telExpired = telemetry.Default().Counter("controller_jobs_expired_total",
		"Admitted jobs retired with unmet demand after their deadline passed.")
	telActiveJobs = telemetry.Default().Gauge("controller_active_jobs",
		"Admitted unfinished jobs after the most recent epoch.")
	telUtilization = telemetry.Default().Gauge("controller_epoch_utilization",
		"Scheduled/capacity ratio of the most recent committed period.")

	telLinkDown = telemetry.Default().Counter("controller_link_down_events_total",
		"Link-failure events applied to the topology.")
	telLinkUp = telemetry.Default().Counter("controller_link_up_events_total",
		"Link-repair events applied to the topology.")
	telReschedOnTime = telemetry.Default().Counter("controller_jobs_rescheduled_ontime_total",
		"Disrupted jobs rescheduled with their original deadline still met.")
	telReschedLate = telemetry.Default().Counter("controller_jobs_rescheduled_late_total",
		"Disrupted jobs rescheduled past their original deadline.")
	telDroppedJobs = telemetry.Default().Counter("controller_jobs_disrupted_dropped_total",
		"Disrupted jobs dropped because no residual route or window remained.")
	telDegraded = telemetry.Default().Counter("controller_epochs_degraded_total",
		"Epochs that fell back below the full policy pipeline.")
	telEpochPanics = telemetry.Default().Counter("controller_epoch_panics_total",
		"Panics recovered inside epoch planning.")
)

// Policy selects the overload behaviour.
type Policy int

// Overload policies.
const (
	// PolicyMaxThroughput runs the two-stage algorithm with LPDAR; when
	// overloaded, jobs deliver Z_i·D_i ≤ D_i by their end times.
	PolicyMaxThroughput Policy = iota
	// PolicyRET runs Algorithm 2; all jobs complete in full, possibly
	// after their requested end times.
	PolicyRET
	// PolicyReject is the paper's action (i): new requests are admitted
	// in arrival order only while the network can still complete every
	// admitted job by its end time (stage-1 Z* ≥ 1, found by binary
	// search per footnote 1); the rest are rejected. Admitted jobs then
	// always finish on time.
	PolicyReject
)

// Degradation tiers recorded per epoch (EpochStat.Tier).
const (
	// TierFull: the configured policy pipeline produced the plan.
	TierFull = "full"
	// TierLPD: the policy failed; the plan is the truncated stage-1 LP.
	TierLPD = "lpd"
	// TierCarry: all solves failed; the previous period's schedule was
	// carried forward, restricted at settlement to links still alive.
	TierCarry = "carry"
	// TierIdle: no plan and nothing to carry; the period transfers nothing.
	TierIdle = "idle"
)

// Config tunes the controller.
type Config struct {
	Tau      float64 // scheduling period; must be a multiple of SliceLen
	SliceLen float64 // slice duration
	K        int     // allowed paths per job
	Alpha    float64 // stage-2 fairness slack (PolicyMaxThroughput)
	Policy   Policy
	BMax     float64 // RET search ceiling (PolicyRET); default 10
	Solver   lp.Options
	// Weight overrides the stage-2 objective weight function
	// (PolicyMaxThroughput/PolicyReject); nil keeps the paper's D_i.
	Weight schedule.WeightFunc
	// Tracer, when non-nil, receives a span per epoch and is threaded
	// down into the scheduling and LP layers via Solver.
	Tracer *telemetry.Tracer
	// Logger receives degraded-epoch and recovery diagnostics; nil
	// selects slog.Default().
	Logger *slog.Logger
	// Monolithic forces single-model solves even on instances that
	// decompose into independent components — the A/B switch against the
	// decomposed parallel path (the default).
	Monolithic bool
	// Incremental re-plans each epoch from the previous epoch's
	// per-component plan cache (PolicyMaxThroughput/PolicyReject only):
	// decomposition components that are structurally unchanged since the
	// last solve — same jobs, same residual demand, windows shifted by
	// the epoch step — skip both LP stages and reuse their cached
	// solution, so steady-state epoch cost scales with the churned
	// components (arrivals, completions, actively-transferring jobs)
	// rather than the whole fleet. The committed schedules are
	// byte-identical to the full re-solve under a deterministic pricing
	// rule; see schedule.MaxThroughputIncremental.
	Incremental bool
	// ColumnGen prices path columns on demand instead of enumerating K
	// paths per job upfront: each epoch's instance starts from SeedPaths
	// edge-disjoint seed paths per (src, dst) pair — plus whatever the
	// previous epochs' pricing runs discovered, reused through the
	// controller's PathCache — and schedule.GeneratePaths grows the sets
	// by LP pricing before the policy solve. K is ignored for path
	// construction while set.
	ColumnGen bool
	// SeedPaths is the per-pair seed set size under ColumnGen;
	// non-positive selects the schedule default (2).
	SeedPaths int
	// PriorityRank, when non-nil, orders pending requests ahead of
	// admission: lower ranks are considered first (ties keep arrival
	// order), so under PolicyReject the feasible admission prefix prefers
	// critical work and sheds scavenger work first. Nil keeps pure
	// arrival order.
	PriorityRank func(job.Job) int
	// FlightRecorder, when non-nil, receives one EpochFrame per epoch
	// (probe trajectories, per-component b̂, warm-start and timeout
	// counter deltas, degradation tier) and is auto-dumped to disk when
	// the epoch shows an anomaly: an lp time limit, a recovered panic, a
	// degraded tier, or a cold-fallback spike.
	FlightRecorder *telemetry.FlightRecorder
}

func (c Config) validate() error {
	if c.SliceLen <= 0 {
		return fmt.Errorf("controller: SliceLen must be positive, got %g", c.SliceLen)
	}
	if c.Tau <= 0 {
		return fmt.Errorf("controller: Tau must be positive, got %g", c.Tau)
	}
	ratio := c.Tau / c.SliceLen
	if math.Abs(ratio-math.Round(ratio)) > 1e-9 || ratio < 1 {
		return fmt.Errorf("controller: Tau (%g) must be a positive multiple of SliceLen (%g)", c.Tau, c.SliceLen)
	}
	if c.Policy < PolicyMaxThroughput || c.Policy > PolicyReject {
		return fmt.Errorf("controller: unknown policy %d", c.Policy)
	}
	return nil
}

// Record is the final accounting for one job.
type Record struct {
	Job         job.Job
	Delivered   float64 // total data actually transferred
	FinishTime  float64 // when the transfer completed (or the deadline passed)
	MetDeadline bool    // finished by the *requested* end time
	Completed   bool    // demand fully delivered (possibly late under RET)
	Rejected    bool    // never admitted (window already unusable)
	Disrupted   bool    // dropped mid-transfer by a link failure
}

// DisruptionOutcome classifies what happened to a job whose committed
// schedule a link failure invalidated.
type DisruptionOutcome int

// Disruption outcomes.
const (
	// RescheduledOnTime: the job was replanned over the residual topology
	// and still projects to finish by its original end time.
	RescheduledOnTime DisruptionOutcome = iota
	// RescheduledLate: the job was replanned but projects to finish after
	// its original end time (or not within the current plan at all).
	RescheduledLate
	// DisruptedDropped: no residual route or usable window remained; the
	// job was retired with unmet demand.
	DisruptedDropped
)

// String names the outcome.
func (o DisruptionOutcome) String() string {
	switch o {
	case RescheduledOnTime:
		return "rescheduled-on-time"
	case RescheduledLate:
		return "rescheduled-late"
	case DisruptedDropped:
		return "dropped"
	}
	return fmt.Sprintf("DisruptionOutcome(%d)", int(o))
}

// Disruption records one job disturbed by one link failure.
type Disruption struct {
	JobID   job.ID
	Time    float64
	Edge    netgraph.EdgeID
	Outcome DisruptionOutcome
}

// activeJob is an admitted transfer in progress.
type activeJob struct {
	orig      job.Job
	remaining float64
	delivered float64
	// effectiveEnd is the deadline currently in force (extended under RET).
	effectiveEnd float64
	// retired marks a job that already has a final record (completed,
	// expired, or dropped); retired jobs take no further part in
	// settlement or planning.
	retired bool
}

// commitment is the schedule in force for the current period. Transfers
// are settled lazily — at the next epoch, at link events, or when records
// are read — so a failure mid-period can credit exactly the bytes
// delivered before it and replan the remainder.
type commitment struct {
	plan    *schedule.Assignment
	fresh   []*activeJob // aligned with plan's job indices
	start   float64      // period start (kτ, or the replan instant)
	end     float64      // period end ((k+1)τ)
	settled float64      // transfers credited up to this instant
}

// Controller is the periodic network controller. It is not safe for
// concurrent use.
type Controller struct {
	g      *netgraph.Graph
	cfg    Config
	logger *slog.Logger

	now     float64
	pending []job.Job
	active  []*activeJob
	records []Record
	epochs  []EpochStat

	commit    *commitment
	prevPlan  *schedule.Assignment
	prevFresh []*activeJob

	// down is the set of currently-failed links; resid caches the residual
	// topology derived from it (invalidated on every link event).
	down  map[netgraph.EdgeID]bool
	resid *netgraph.Graph
	// zeroWave lists edges that carry no wavelengths even when healthy.
	zeroWave map[netgraph.EdgeID]bool

	// pathCache memoizes per-(src, dst) path sets across epoch instance
	// builds, keyed by the failed-link set (see schedule.PathCache).
	pathCache *schedule.PathCache
	// warmRET carries RET probe bases and certificates across epochs, one
	// entry per decomposition component keyed by its job-ID fingerprint
	// and tagged with its edge set. A changed job mix simply misses the
	// map for the affected components (the lp layer would reject the
	// structural mismatch anyway), a link failure evicts only the
	// components whose paths used the failed edge, and a repair clears
	// the map, since restored capacity can re-couple components. The
	// committed schedules are byte-identical with or without the carry;
	// only solve time changes.
	warmRET map[string]*schedule.ComponentBasis
	// planCache carries per-component stage-1/stage-2 plans between
	// epochs under Config.Incremental, replaced wholesale by every
	// successful policy solve. Structural matching makes stale entries
	// harmless, but link events clear it anyway (the residual-graph swap
	// would defeat every match until the next full solve regardless).
	planCache *schedule.PlanCache

	disruptions []Disruption

	// audit holds each job's decision history; auditSeq orders events
	// globally across jobs.
	audit    map[job.ID][]AuditEvent
	auditSeq int

	// epochTracer is the per-epoch child scope every solve of the current
	// epoch parents to (nil outside RunEpoch or when tracing is off).
	epochTracer *telemetry.Tracer
	// lastSolve describes the successful policy solve of the current
	// epoch, for audit records and the flight-recorder frame.
	lastSolve *solveInfo
	// probes collects the RET search trajectory of the current epoch —
	// including probes whose solve failed, which is what the flight
	// recorder needs after a forced timeout. Guarded by probeMu because
	// per-component searches run on a worker pool.
	probeMu sync.Mutex
	probes  []schedule.ProbeStep
	// epochPanicked marks that guard recovered a panic this epoch.
	epochPanicked bool

	// Epochs counts RunEpoch calls.
	Epochs int
}

// EpochStat summarizes one scheduling instant and the period it committed.
type EpochStat struct {
	Time        float64 // the instant kτ
	ActiveJobs  int     // jobs optimized at this instant
	Admitted    int     // new requests taken from the pending buffer
	Rejected    int     // new requests rejected immediately
	Scheduled   float64 // wavelength·time units committed in [kτ, (k+1)τ)
	Capacity    float64 // total wavelength·time units available in the period
	Utilization float64 // Scheduled / Capacity (0 when idle)
	Degraded    bool    // the full policy pipeline did not produce the plan
	Tier        string  // TierFull, TierLPD, TierCarry, or TierIdle
}

// EpochStats returns the per-epoch utilization history.
func (c *Controller) EpochStats() []EpochStat {
	out := make([]EpochStat, len(c.epochs))
	copy(out, c.epochs)
	return out
}

// New returns a controller starting at time 0.
func New(g *netgraph.Graph, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.BMax == 0 {
		cfg.BMax = 10
	}
	if cfg.Tracer != nil && cfg.Solver.Tracer == nil {
		cfg.Solver.Tracer = cfg.Tracer
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ctrl := &Controller{g: g, cfg: cfg, logger: logger, pathCache: schedule.NewPathCache()}
	for _, e := range g.Edges() {
		if e.Wavelengths == 0 {
			if ctrl.zeroWave == nil {
				ctrl.zeroWave = make(map[netgraph.EdgeID]bool)
			}
			ctrl.zeroWave[e.ID] = true
		}
	}
	return ctrl, nil
}

// record appends one job record and keeps the outcome counters current.
func (c *Controller) record(r Record) { c.recordWhy(r, "") }

// recordWhy is record with a human-readable verdict for the job's audit
// trail (the final audit event's Detail).
func (c *Controller) recordWhy(r Record, why string) {
	switch {
	case r.Rejected:
		telRejected.Inc()
	case r.Completed:
		telCompleted.Inc()
	case r.Disrupted:
		// counted per disruption outcome, not here
	default:
		telExpired.Inc()
	}
	c.records = append(c.records, r)
	c.appendAudit(r.Job.ID, AuditEvent{
		Epoch:  c.Epochs,
		Time:   r.FinishTime,
		Kind:   string(RecordState(r)),
		Detail: why,
		Trace:  int64(c.Epochs),
	})
}

func (c *Controller) addDisruption(id job.ID, t float64, e netgraph.EdgeID, o DisruptionOutcome) {
	switch o {
	case RescheduledOnTime:
		telReschedOnTime.Inc()
	case RescheduledLate:
		telReschedLate.Inc()
	case DisruptedDropped:
		telDroppedJobs.Inc()
	}
	c.disruptions = append(c.disruptions, Disruption{JobID: id, Time: t, Edge: e, Outcome: o})
	c.appendAudit(id, AuditEvent{
		Epoch:  c.Epochs,
		Time:   t,
		Kind:   AuditDisrupted,
		Detail: fmt.Sprintf("link %d failed: %s", int(e), o.String()),
		Trace:  int64(c.Epochs),
	})
}

// Now returns the controller's clock.
func (c *Controller) Now() float64 { return c.now }

// Tracer returns the configured trace sink (nil when tracing is off),
// so drivers above the controller — the sim engine, the serve loop —
// can emit their own spans into the same stream.
func (c *Controller) Tracer() *telemetry.Tracer { return c.cfg.Tracer }

// ErrTooLate reports a submission whose requested end time has already
// passed the controller's clock: no epoch can ever schedule it, under any
// policy (RET extensions are measured from the planning instant, so a
// dead window stays dead). Test with errors.Is.
var ErrTooLate = errors.New("deadline already passed")

// Submit buffers a request for the next scheduling instant. Requests whose
// window is already unusable are rejected immediately: a job whose end
// time precedes the controller clock gets a rejected record and
// ErrTooLate instead of being silently buffered for a planning run that
// could never serve it.
func (c *Controller) Submit(j job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.End <= c.now+1e-9 {
		c.recordWhy(Record{Job: j, Rejected: true, FinishTime: c.now},
			fmt.Sprintf("deadline %g already passed at submission (t=%g)", j.End, c.now))
		return fmt.Errorf("controller: job %d: %w", j.ID, ErrTooLate)
	}
	// The request will be considered at the next epoch; stamp its trace
	// accordingly so GET /v1/debug/trace groups it with that epoch.
	c.appendAudit(j.ID, AuditEvent{
		Epoch:  c.Epochs,
		Time:   c.now,
		Kind:   AuditSubmitted,
		Detail: fmt.Sprintf("window [%g, %g] size %g %d->%d", j.Start, j.End, j.Size, j.Src, j.Dst),
		Trace:  int64(c.Epochs) + 1,
	})
	c.pending = append(c.pending, j)
	return nil
}

// SubmitBatch buffers one admission batch for the next scheduling
// instant: each job goes through the same validation, too-late rejection,
// and audit trail as Submit, and the returned slice pairs each job with
// its outcome (nil = buffered). A rejection never blocks the rest of the
// batch — this is the controller half of the admission subsystem's
// batched intake, where one WAL entry and one mutex acquisition admit an
// entire intake drain.
func (c *Controller) SubmitBatch(jobs []job.Job) []error {
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		errs[i] = c.Submit(j)
	}
	return errs
}

// RecordCount reports how many final records exist as of the last
// settlement, without settling or copying. With RecordsFrom it gives
// upper layers (the admission quota ledger) a cursor over the record
// stream: count once, read only the new suffix.
func (c *Controller) RecordCount() int { return len(c.records) }

// RecordsFrom returns a copy of the final records from index i on, as of
// the last settlement, without settling. Like CurrentRecords it never
// mutates controller state.
func (c *Controller) RecordsFrom(i int) []Record {
	if i < 0 {
		i = 0
	}
	if i >= len(c.records) {
		return nil
	}
	out := make([]Record, len(c.records)-i)
	copy(out, c.records[i:])
	return out
}

// Records returns the accounting for all finished (or rejected) jobs. Any
// outstanding commitment is settled first, so the accounting reflects
// everything the committed schedule will deliver.
func (c *Controller) Records() []Record {
	c.settleAll()
	out := make([]Record, len(c.records))
	copy(out, c.records)
	return out
}

// CurrentRecords returns the accounting as of the last settlement,
// without settling the outstanding commitment. Unlike Records it never
// mutates controller state, so periodic status polls (the HTTP server's
// GET handlers) cannot perturb mid-period failure handling or replay
// determinism. Jobs that will complete later in the committed period do
// not appear until settlement reaches them.
func (c *Controller) CurrentRecords() []Record {
	out := make([]Record, len(c.records))
	copy(out, c.records)
	return out
}

// JobState labels one job's position in its lifecycle.
type JobState string

// Job lifecycle states, as reported by JobStatuses.
const (
	// JobPending: submitted, waiting for the next scheduling instant.
	JobPending JobState = "pending"
	// JobActive: admitted and unfinished as of the last settlement.
	JobActive JobState = "active"
	// JobCompleted: full demand delivered.
	JobCompleted JobState = "completed"
	// JobExpired: retired with unmet demand after its window died.
	JobExpired JobState = "expired"
	// JobRejected: never admitted.
	JobRejected JobState = "rejected"
	// JobDropped: dropped mid-transfer by a link failure.
	JobDropped JobState = "dropped"
)

// RecordState classifies a final record into its lifecycle state.
func RecordState(r Record) JobState {
	switch {
	case r.Rejected:
		return JobRejected
	case r.Completed:
		return JobCompleted
	case r.Disrupted:
		return JobDropped
	default:
		return JobExpired
	}
}

// JobStatus is one job's lifecycle view: final records carry their
// outcome, in-flight jobs their progress as of the last settlement.
type JobStatus struct {
	Job          job.Job
	State        JobState
	Delivered    float64
	Remaining    float64 // demand left (0 for final states)
	EffectiveEnd float64 // deadline in force (extended under RET)
	FinishTime   float64 // final states only
	MetDeadline  bool    // final states only
}

// JobStatuses returns a status per known job — finished first (record
// order), then active, then pending — without settling the outstanding
// commitment (see CurrentRecords).
func (c *Controller) JobStatuses() []JobStatus {
	out := make([]JobStatus, 0, len(c.records)+len(c.active)+len(c.pending))
	for _, r := range c.records {
		out = append(out, JobStatus{
			Job: r.Job, State: RecordState(r),
			Delivered: r.Delivered, EffectiveEnd: r.Job.End,
			FinishTime: r.FinishTime, MetDeadline: r.MetDeadline,
		})
	}
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		out = append(out, JobStatus{
			Job: aj.orig, State: JobActive,
			Delivered: aj.delivered, Remaining: aj.remaining,
			EffectiveEnd: aj.effectiveEnd,
		})
	}
	for _, j := range c.pending {
		out = append(out, JobStatus{
			Job: j, State: JobPending, Remaining: j.Size, EffectiveEnd: j.End,
		})
	}
	return out
}

// CommittedSchedule returns the integer assignment currently in force and
// its period bounds, or ok=false when no commitment is outstanding (idle,
// or between settlement and the next epoch). The assignment is shared,
// not copied: callers must treat it as read-only.
func (c *Controller) CommittedSchedule() (plan *schedule.Assignment, start, end float64, ok bool) {
	if c.commit == nil {
		return nil, 0, 0, false
	}
	return c.commit.plan, c.commit.start, c.commit.end, true
}

// Disruptions returns every (job, link-failure) disturbance so far, in
// event order.
func (c *Controller) Disruptions() []Disruption {
	out := make([]Disruption, len(c.disruptions))
	copy(out, c.disruptions)
	return out
}

// DownLinks returns the currently-failed edges in ascending ID order.
func (c *Controller) DownLinks() []netgraph.EdgeID {
	out := make([]netgraph.EdgeID, 0, len(c.down))
	for e := range c.down {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ActiveCount returns the number of admitted jobs that will still be
// unfinished once the committed period completes.
func (c *Controller) ActiveCount() int { return c.projectedActiveCount() }

// PendingCount returns the number of buffered, not-yet-scheduled requests.
func (c *Controller) PendingCount() int { return len(c.pending) }

// Idle reports whether no work remains.
func (c *Controller) Idle() bool {
	return len(c.pending) == 0 && c.projectedActiveCount() == 0
}

// graph returns the topology planning should use: the full graph, or the
// residual topology with every failed link at zero wavelengths.
func (c *Controller) graph() *netgraph.Graph {
	if len(c.down) == 0 {
		return c.g
	}
	if c.resid == nil {
		r, err := c.g.WithLinksDown(c.DownLinks()...)
		if err != nil { // unreachable: LinkDown validates IDs
			return c.g
		}
		c.resid = r
	}
	return c.resid
}

// hasRoute reports whether src→dst is connected over healthy links.
func (c *Controller) hasRoute(j job.Job) bool {
	var banned map[netgraph.EdgeID]bool
	if len(c.zeroWave) > 0 || len(c.down) > 0 {
		banned = make(map[netgraph.EdgeID]bool, len(c.zeroWave)+len(c.down))
		for e := range c.zeroWave {
			banned[e] = true
		}
		for e := range c.down {
			banned[e] = true
		}
	}
	_, ok := paths.Shortest(c.g, j.Src, j.Dst, paths.UnitCost, banned, nil)
	return ok
}

// blockedEdges returns the settlement filter: the current down set plus
// extra (either may be empty), or nil when no link is blocked.
func (c *Controller) blockedEdges(extra map[netgraph.EdgeID]bool) map[netgraph.EdgeID]bool {
	if len(c.down) == 0 && len(extra) == 0 {
		return nil
	}
	blocked := make(map[netgraph.EdgeID]bool, len(c.down)+len(extra))
	for e := range c.down {
		blocked[e] = true
	}
	for e := range extra {
		blocked[e] = true
	}
	return blocked
}

func pathBlocked(p paths.Path, blocked map[netgraph.EdgeID]bool) bool {
	for _, e := range p.Edges {
		if blocked[e] {
			return true
		}
	}
	return false
}

// settle credits transfers under the committed plan for every slice ending
// in (settled, until], excluding flow on paths crossing a blocked link
// (the down set plus extra), and finalizes the period when it is fully
// settled.
func (c *Controller) settle(until float64, extra map[netgraph.EdgeID]bool) {
	cm := c.commit
	if cm == nil {
		return
	}
	if until > cm.end {
		until = cm.end
	}
	if until > cm.settled+1e-9 {
		grid := cm.plan.Inst.Grid
		blocked := c.blockedEdges(extra)
		for k, aj := range cm.fresh {
			if aj.retired {
				continue
			}
			for j := 0; j < grid.Num(); j++ {
				end := grid.Start(j) + grid.Len(j)
				if end <= cm.settled+1e-9 {
					continue
				}
				if end > until+1e-9 {
					break
				}
				got := 0.0
				for p := range cm.plan.X[k] {
					if blocked != nil && pathBlocked(cm.plan.Inst.JobPaths[k][p], blocked) {
						continue
					}
					got += cm.plan.X[k][p][j] * grid.Len(j)
				}
				if got <= 0 {
					continue
				}
				if got > aj.remaining {
					got = aj.remaining
				}
				aj.remaining -= got
				aj.delivered += got
				if aj.remaining <= 1e-9 {
					aj.remaining = 0
					aj.retired = true
					c.record(Record{
						Job:         aj.orig,
						Delivered:   aj.delivered,
						FinishTime:  end,
						MetDeadline: end <= aj.orig.End+1e-9,
						Completed:   true,
					})
					break
				}
			}
		}
		cm.settled = until
	} else if until > cm.settled {
		cm.settled = until
	}
	if cm.settled >= cm.end-1e-9 {
		c.finalize()
	}
}

// settleAll settles the outstanding commitment through the end of its
// period.
func (c *Controller) settleAll() {
	if c.commit != nil {
		c.settle(c.commit.end, nil)
	}
}

// finalize closes the fully-settled period: jobs whose effective deadline
// falls inside it are retired as expired, the schedule is kept as the
// carry-forward fallback, and the commitment is cleared.
func (c *Controller) finalize() {
	cm := c.commit
	var still []*activeJob
	for _, aj := range c.active {
		switch {
		case aj.retired:
			// already recorded
		case aj.effectiveEnd <= cm.end+1e-9:
			aj.retired = true
			c.record(Record{
				Job:        aj.orig,
				Delivered:  aj.delivered,
				FinishTime: aj.effectiveEnd,
				Completed:  false,
			})
		default:
			still = append(still, aj)
		}
	}
	c.active = still
	c.prevPlan, c.prevFresh = cm.plan, cm.fresh
	c.commit = nil
}

// projectedActiveCount returns how many admitted jobs will remain
// unfinished after the outstanding commitment settles, without mutating
// any state.
func (c *Controller) projectedActiveCount() int {
	cm := c.commit
	if cm == nil {
		n := 0
		for _, aj := range c.active {
			if !aj.retired {
				n++
			}
		}
		return n
	}
	idx := make(map[*activeJob]int, len(cm.fresh))
	for k, aj := range cm.fresh {
		idx[aj] = k
	}
	grid := cm.plan.Inst.Grid
	blocked := c.blockedEdges(nil)
	n := 0
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		rem := aj.remaining
		if k, ok := idx[aj]; ok && rem > 1e-9 {
			for j := 0; j < grid.Num(); j++ {
				end := grid.Start(j) + grid.Len(j)
				if end <= cm.settled+1e-9 {
					continue
				}
				if end > cm.end+1e-9 {
					break
				}
				got := 0.0
				for p := range cm.plan.X[k] {
					if blocked != nil && pathBlocked(cm.plan.Inst.JobPaths[k][p], blocked) {
						continue
					}
					got += cm.plan.X[k][p][j] * grid.Len(j)
				}
				if got > rem {
					got = rem
				}
				rem -= got
				if rem <= 1e-9 {
					rem = 0
					break
				}
			}
		}
		if rem > 1e-9 && aj.effectiveEnd > cm.end+1e-9 {
			n++
		}
	}
	return n
}

// RunEpoch performs one scheduling instant at the current time: settle the
// previous period, admit the pending requests, re-optimize all unfinished
// jobs, commit the integer schedule for [now, now+τ), and advance the
// clock by τ. Transfers under the new schedule are credited lazily — at
// the next epoch, at link events, or when Records is read.
func (c *Controller) RunEpoch() error {
	c.settleAll()
	c.Epochs++
	now := c.now
	start := time.Now()
	// The epoch index is the trace ID: it is stable across restarts and
	// WAL replay, so a trace (and the audit records stamped with it)
	// regenerates identically on a rebuilt server.
	epochTrace := int64(c.Epochs)
	sp := c.cfg.Tracer.WithTrace(epochTrace).Start("controller.epoch")
	c.epochTracer = sp.Tracer()
	c.epochPanicked = false
	c.lastSolve = nil
	c.probes = c.probes[:0]
	reg := telemetry.Default()
	warmHits0, _ := reg.CounterValue("lp_warmstart_hits_total", nil)
	warmFB0, _ := reg.CounterValue("lp_warmstart_fallbacks_total", nil)
	timeouts0, _ := reg.CounterValue("lp_solve_timeouts_total", nil)
	stat := EpochStat{Time: now}
	defer func() {
		c.epochs = append(c.epochs, stat)
		telEpochs.Inc()
		telEpochSeconds.ObserveSince(start)
		telAdmitted.Add(int64(stat.Admitted))
		telActiveJobs.Set(float64(c.projectedActiveCount()))
		telUtilization.Set(stat.Utilization)
		if stat.Degraded {
			telDegraded.Inc()
		}
		if c.cfg.Tracer != nil {
			attrs := []telemetry.Attr{
				telemetry.KV("t", now),
				telemetry.KV("active_jobs", stat.ActiveJobs),
				telemetry.KV("admitted", stat.Admitted),
				telemetry.KV("rejected", stat.Rejected),
				telemetry.KV("utilization", stat.Utilization),
			}
			if stat.Degraded {
				attrs = append(attrs, telemetry.KV("tier", stat.Tier))
			}
			sp.End(attrs...)
		}
		c.epochTracer = nil
		if fr := c.cfg.FlightRecorder; fr != nil {
			warmHits1, _ := reg.CounterValue("lp_warmstart_hits_total", nil)
			warmFB1, _ := reg.CounterValue("lp_warmstart_fallbacks_total", nil)
			timeouts1, _ := reg.CounterValue("lp_solve_timeouts_total", nil)
			c.probeMu.Lock()
			probes := append([]schedule.ProbeStep(nil), c.probes...)
			c.probeMu.Unlock()
			frame := EpochFrame{
				Epoch: c.Epochs, Time: now, Trace: epochTrace, Tier: stat.Tier,
				ActiveJobs: stat.ActiveJobs, Admitted: stat.Admitted, Rejected: stat.Rejected,
				Utilization: stat.Utilization,
				DurUS:       float64(time.Since(start)) / float64(time.Microsecond),
				Probes:      probes,
				WarmHits:    warmHits1 - warmHits0, WarmFallbacks: warmFB1 - warmFB0,
				LPTimeouts: timeouts1 - timeouts0,
				Panic:      c.epochPanicked,
			}
			if ls := c.lastSolve; ls != nil {
				frame.Components, frame.BHat, frame.B = ls.components, ls.bhat, ls.b
			}
			var anoms []string
			if frame.LPTimeouts > 0 {
				anoms = append(anoms, "lp_timeout")
			}
			if frame.Panic {
				anoms = append(anoms, "panic")
			}
			if stat.Degraded && stat.Tier != "" {
				anoms = append(anoms, "degraded_"+stat.Tier)
			}
			if frame.WarmFallbacks >= 2 && frame.WarmFallbacks > frame.WarmHits {
				anoms = append(anoms, "cold_fallback_spike")
			}
			frame.Anomalies = anoms
			fr.Record(frame)
			if len(anoms) > 0 {
				reason := strings.Join(anoms, "+")
				if path, err := fr.Dump(reason); err != nil {
					c.logger.Warn("controller: flight-recorder dump failed", "reason", reason, "err", err)
				} else {
					c.logger.Warn("controller: flight-recorder dump", "reason", reason, "path", path)
				}
			}
		}
	}()

	// Under PolicyReject, admission control trims the pending list first:
	// only the longest arrival-order prefix that keeps Z* ≥ 1 (together
	// with the already-admitted jobs) enters the network.
	if c.cfg.Policy == PolicyReject && len(c.pending) > 0 {
		admitted, err := c.admitPrefix(now)
		if err != nil {
			return err
		}
		for _, j := range c.pending[admitted:] {
			c.recordWhy(Record{Job: j, Rejected: true, FinishTime: now},
				"admission control: completing it on time with the admitted set is infeasible (Z* < 1)")
			stat.Rejected++
		}
		c.pending = c.pending[:admitted]
	}

	// Move pending requests into the active set, rejecting those whose
	// deadline cannot accommodate even one slice from now on (under
	// PolicyMaxThroughput; RET can extend them) and those with no route
	// over the surviving topology. Every admission this epoch shares one
	// audit detail string.
	admitDetail := fmt.Sprintf("entered the active set at epoch t=%g", now)
	for _, j := range c.pending {
		usableEnd := j.End
		if c.cfg.Policy == PolicyRET {
			usableEnd = now + (j.End-now)*(1+c.cfg.BMax)
		}
		if usableEnd-math.Max(j.Start, now) < c.cfg.SliceLen-1e-9 {
			c.recordWhy(Record{Job: j, Rejected: true, FinishTime: now},
				fmt.Sprintf("usable window shorter than one slice (%g) at t=%g", c.cfg.SliceLen, now))
			stat.Rejected++
			continue
		}
		if !c.hasRoute(j) {
			c.recordWhy(Record{Job: j, Rejected: true, FinishTime: now},
				"no route over the surviving topology")
			stat.Rejected++
			continue
		}
		stat.Admitted++
		c.appendAudit(j.ID, AuditEvent{
			Epoch: c.Epochs, Time: now, Kind: AuditAdmitted, Trace: epochTrace,
			Detail: admitDetail,
		})
		c.active = append(c.active, &activeJob{
			orig: j, remaining: j.Size, effectiveEnd: j.End,
		})
	}
	c.pending = c.pending[:0]
	// Admissions need no warm-basis invalidation: components whose job mix
	// changed miss the fingerprint-keyed map naturally, while untouched
	// components keep their bases.

	// Retire active jobs whose remaining window can no longer hold a whole
	// slice: nothing further can be scheduled for them.
	var usable []*activeJob
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		winStart := math.Max(aj.orig.Start, now)
		if aj.effectiveEnd-winStart < c.cfg.SliceLen-1e-9 {
			aj.retired = true
			c.recordWhy(Record{
				Job:        aj.orig,
				Delivered:  aj.delivered,
				FinishTime: aj.effectiveEnd,
				Completed:  false,
			}, "remaining window cannot hold one slice; nothing further schedulable")
			continue
		}
		usable = append(usable, aj)
	}
	c.active = usable

	if len(c.active) == 0 {
		c.now += c.cfg.Tau
		return nil
	}

	// Build the scheduling instance and solve, degrading instead of
	// failing: full policy → LPD → carry-forward → idle.
	inst, fresh, err := c.buildInstance(now)
	var plan *schedule.Assignment
	tier := ""
	if err != nil {
		c.logDegrade(now, "instance build failed", err)
	} else {
		plan, tier = c.solveChain(inst, fresh, now)
	}
	cmFresh := fresh
	if plan == nil {
		if c.prevPlan != nil {
			plan, cmFresh, tier = c.prevPlan, c.prevFresh, TierCarry
		} else {
			tier = TierIdle
		}
		c.logger.Warn("controller: degraded epoch", "t", now, "tier", tier)
	}
	stat.Tier = tier
	stat.Degraded = tier != TierFull
	if stat.Degraded {
		for _, aj := range fresh {
			c.appendAudit(aj.orig.ID, AuditEvent{
				Epoch: c.Epochs, Time: now, Kind: AuditDegraded, Trace: epochTrace,
				Detail: fmt.Sprintf("epoch fell back to tier %q", tier),
			})
		}
	}

	stat.ActiveJobs = len(fresh)
	stat.Scheduled, stat.Capacity = c.periodUsage(plan, now)
	if stat.Capacity > 0 {
		stat.Utilization = stat.Scheduled / stat.Capacity
	}
	if plan != nil {
		c.commit = &commitment{
			plan: plan, fresh: cmFresh,
			start: now, end: now + c.cfg.Tau, settled: now,
		}
	}
	c.now += c.cfg.Tau
	return nil
}

// buildInstance snapshots the live jobs and builds the scheduling instance
// over a grid starting at now, on the residual topology. The snapshot is
// returned even when instance construction fails.
func (c *Controller) buildInstance(now float64) (*schedule.Instance, []*activeJob, error) {
	jobs, fresh := c.snapshotJobs(now)
	horizon := job.MaxEnd(jobs)
	if c.cfg.Policy == PolicyRET {
		horizon = now + (horizon-now)*(1+c.cfg.BMax)
	}
	n := timeslice.CoverUntil(now, c.cfg.SliceLen, horizon)
	if n < 1 {
		n = 1
	}
	grid, err := timeslice.Uniform(now, c.cfg.SliceLen, n)
	if err != nil {
		return nil, fresh, err
	}
	inst, err := c.newInstance(grid, jobs, false)
	if err != nil {
		return nil, fresh, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
	}
	return inst, fresh, nil
}

// newInstance builds a scheduling instance with the controller's path
// configuration. Under ColumnGen it also runs the pricing loop, so the
// returned instance's path sets already cover every column the solves
// that follow can use; discovered sets are published to the PathCache
// and seed the next epoch's build. stage1Only skips stage-2 (and SUB-RET)
// pricing — enough for feasibility probes that only consult Z*.
func (c *Controller) newInstance(grid *timeslice.Grid, jobs []job.Job, stage1Only bool) (*schedule.Instance, error) {
	opts := schedule.InstanceOptions{K: c.cfg.K, PathCache: c.pathCache}
	if c.cfg.ColumnGen {
		opts.ColumnGen, opts.SeedPaths = true, c.cfg.SeedPaths
	}
	inst, err := schedule.NewInstanceOpts(c.graph(), grid, jobs, opts)
	if err != nil || !c.cfg.ColumnGen {
		return inst, err
	}
	cg := schedule.ColGenConfig{
		Solver: c.solverOpts(), Alpha: c.cfg.Alpha, Weight: c.cfg.Weight,
		SkipStage2: stage1Only,
	}
	if !stage1Only && c.cfg.Policy == PolicyRET {
		cg.RET = &schedule.RETConfig{BMax: c.cfg.BMax, Solver: c.solverOpts()}
	}
	if _, err := schedule.GeneratePaths(inst, cg); err != nil {
		return nil, fmt.Errorf("column generation: %w", err)
	}
	return inst, nil
}

// solveChain runs the degradation chain over one instance: the configured
// policy pipeline first, then plain LPD (truncated stage-1). Both solves
// are panic-guarded. Returns (nil, "") when every tier fails.
func (c *Controller) solveChain(inst *schedule.Instance, fresh []*activeJob, now float64) (*schedule.Assignment, string) {
	var plan *schedule.Assignment
	err := c.guard(func() error {
		var e error
		plan, e = c.solvePolicy(inst, fresh, now)
		return e
	})
	if err == nil && plan != nil {
		return plan, TierFull
	}
	c.logDegrade(now, "policy solve failed", err)

	plan = nil
	err = c.guard(func() error {
		s1, e := schedule.SolveStage1(inst, c.solverOpts())
		if e != nil {
			return e
		}
		plan = s1.Frac.Truncate()
		return nil
	})
	if err == nil && plan != nil {
		return plan, TierLPD
	}
	c.logDegrade(now, "stage-1 LPD failed", err)
	return nil, ""
}

// guard runs f, converting a panic into an error so one poisoned solve
// cannot take down the controller.
func (c *Controller) guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			telEpochPanics.Inc()
			c.epochPanicked = true
			err = fmt.Errorf("controller: recovered panic in epoch planning: %v", r)
		}
	}()
	return f()
}

// solverOpts returns the lp options for the current solve, scoped to the
// running epoch's trace when one is active so every lp.solve span (and
// everything below it) parents to the epoch span.
func (c *Controller) solverOpts() lp.Options {
	o := c.cfg.Solver
	if c.epochTracer != nil {
		o.Tracer = c.epochTracer
	}
	return o
}

func (c *Controller) logDegrade(now float64, msg string, err error) {
	c.logger.Warn("controller: "+msg, "t", now, "err", err)
}

// solvePolicy runs the configured policy over the instance. Under RET a
// successful solve also extends the effective deadlines of the snapshot.
func (c *Controller) solvePolicy(inst *schedule.Instance, fresh []*activeJob, now float64) (*schedule.Assignment, error) {
	switch c.cfg.Policy {
	case PolicyMaxThroughput, PolicyReject:
		scfg := schedule.Config{
			Alpha: c.cfg.Alpha, AlphaGrowth: 0.1, Solver: c.solverOpts(),
			Weight: c.cfg.Weight, Monolithic: c.cfg.Monolithic,
		}
		var res *schedule.Result
		var err error
		if c.cfg.Incremental {
			res, c.planCache, err = schedule.MaxThroughputIncremental(inst, scfg, c.planCache)
		} else {
			res, err = schedule.MaxThroughput(inst, scfg)
		}
		if err != nil {
			return nil, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
		}
		c.lastSolve = &solveInfo{components: res.Components}
		detail := fmt.Sprintf("policy=max_throughput z*=%g alpha=%g components=%d",
			res.ZStar, res.Alpha, res.Components)
		for _, aj := range fresh {
			c.appendAudit(aj.orig.ID, AuditEvent{
				Epoch: c.Epochs, Time: now, Kind: AuditPlanned,
				Trace: int64(c.Epochs), Detail: detail,
			})
		}
		return res.LPDAR, nil
	case PolicyRET:
		// The previous epoch's probe bases and certificates are handed over
		// per component: components whose job mix changed miss the map, a
		// mismatched basis is merely a wasted lp fallback, and a stale
		// certificate self-declines — never a wrong answer.
		retCfg := schedule.RETConfig{
			BMax: c.cfg.BMax, Solver: c.solverOpts(),
			Monolithic: c.cfg.Monolithic, WarmComponents: c.warmRET,
			// Stream every search probe into the epoch's trajectory log,
			// including probes whose solve errored — a forced lp timeout
			// must still leave its trajectory for the flight recorder.
			OnProbe: func(st schedule.ProbeStep) {
				c.probeMu.Lock()
				c.probes = append(c.probes, st)
				c.probeMu.Unlock()
			},
		}
		res, err := schedule.SolveRET(inst, retCfg)
		if err != nil {
			// A failed search (typically infeasible even at BMax) still
			// exports certificates; merging them in lets the next epoch —
			// often just as overloaded — refute its ceiling probe without
			// a solve. Merge rather than replace: components the failed
			// search never reached keep their carried entries.
			if res != nil && len(res.ProbeBases) > 0 {
				if c.warmRET == nil {
					c.warmRET = make(map[string]*schedule.ComponentBasis, len(res.ProbeBases))
				}
				for k, v := range res.ProbeBases {
					c.warmRET[k] = v
				}
			}
			return nil, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
		}
		// Replace wholesale: entries for components that dissolved this
		// epoch are pruned automatically.
		c.warmRET = res.ProbeBases
		c.lastSolve = &solveInfo{
			bhat: res.BHat, b: res.B, components: res.Components,
			jobComponents: res.JobComponents, bhats: res.BHats,
		}
		// Renegotiated deadlines: extend every active job's effective end,
		// and leave each job a planned event naming the component and the
		// probe bound that fixed its schedule.
		detail := fmt.Sprintf("policy=ret components=%d delta_rounds=%d", res.Components, res.Rounds)
		for i, aj := range fresh {
			comp := ""
			compBHat := res.BHat
			if i < len(res.JobComponents) {
				comp = res.JobComponents[i]
				if v, ok := res.BHats[comp]; ok {
					compBHat = v
				}
			}
			c.appendAudit(aj.orig.ID, AuditEvent{
				Epoch: c.Epochs, Time: now, Kind: AuditPlanned,
				Trace: int64(c.Epochs), Component: comp, BHat: compBHat, B: res.B,
				Detail: detail,
			})
			ext := now + (aj.orig.End-now)*(1+res.B)
			if ext > fresh[i].effectiveEnd {
				c.appendAudit(aj.orig.ID, AuditEvent{
					Epoch: c.Epochs, Time: now, Kind: AuditExtended,
					Trace: int64(c.Epochs), B: res.B,
					Detail: fmt.Sprintf("effective deadline %g -> %g (b=%g)", fresh[i].effectiveEnd, ext, res.B),
				})
				fresh[i].effectiveEnd = ext
			}
		}
		return res.LPDAR, nil
	default:
		return nil, fmt.Errorf("controller: unknown policy %d", c.cfg.Policy)
	}
}

// dropRETCarryUsing evicts the RET carry of components whose path sets
// touch edge e; components that never routed over e keep theirs (their
// k-shortest path sets over the residual topology are unchanged, so their
// next-epoch fingerprints still match).
func (c *Controller) dropRETCarryUsing(e netgraph.EdgeID) {
	for key, cb := range c.warmRET {
		for _, ce := range cb.Edges {
			if ce == e {
				delete(c.warmRET, key)
				break
			}
		}
	}
}

// LinkDown fails edge e at time t: bytes delivered before t are credited
// (the slice straddling t counts only paths avoiding e), unreachable jobs
// are dropped, and the rest of the period is replanned over the residual
// topology. Disrupted jobs are classified as rescheduled on time,
// rescheduled late, or dropped.
func (c *Controller) LinkDown(e netgraph.EdgeID, t float64) error {
	if int(e) < 0 || int(e) >= c.g.NumEdges() {
		return fmt.Errorf("controller: unknown edge %d", e)
	}
	if c.down[e] {
		return nil
	}
	telLinkDown.Inc()

	// Credit everything delivered before the failure under the old down
	// set, then the straddling slice with the failed link excluded.
	b := t
	if c.commit != nil {
		c.settle(t, nil)
	}
	disrupted := make(map[*activeJob]bool)
	if cm := c.commit; cm != nil {
		se := straddleEnd(cm, t)
		c.settle(se, map[netgraph.EdgeID]bool{e: true})
	}
	if cm := c.commit; cm != nil {
		b = cm.settled
		// Jobs whose remaining committed flow crosses e are disrupted.
		for k, aj := range cm.fresh {
			if !aj.retired && planUsesEdge(cm.plan, k, e, t) {
				disrupted[aj] = true
			}
		}
	}

	if c.down == nil {
		c.down = make(map[netgraph.EdgeID]bool)
	}
	c.down[e] = true
	c.resid = nil
	c.dropRETCarryUsing(e) // only components routed over e lose their carry
	// The incremental plan cache is pinned to the healthy graph object;
	// the residual-graph swap defeats every structural match, so drop it.
	c.planCache = nil

	// Drop jobs with no route left.
	for _, aj := range c.active {
		if aj.retired || c.hasRoute(aj.orig) {
			continue
		}
		aj.retired = true
		c.record(Record{
			Job:        aj.orig,
			Delivered:  aj.delivered,
			FinishTime: t,
			Completed:  false,
			Disrupted:  true,
		})
		c.addDisruption(aj.orig.ID, t, e, DisruptedDropped)
		delete(disrupted, aj)
	}

	if c.commit != nil {
		c.replanAfterFailure(b, e, t, disrupted)
	}
	return nil
}

// LinkUp repairs edge e at time t. The running plan (built without e) stays
// in force; the restored capacity is used from the next epoch on. Bytes are
// settled through the slice straddling t under the old down set, so a
// carried-forward schedule never retroactively credits flow over a link
// that was down for part of the slice.
func (c *Controller) LinkUp(e netgraph.EdgeID, t float64) error {
	if int(e) < 0 || int(e) >= c.g.NumEdges() {
		return fmt.Errorf("controller: unknown edge %d", e)
	}
	if !c.down[e] {
		return nil
	}
	telLinkUp.Inc()
	if c.commit != nil {
		c.settle(t, nil)
	}
	if cm := c.commit; cm != nil {
		c.settle(straddleEnd(cm, t), nil)
	}
	delete(c.down, e)
	c.resid = nil
	// Restored capacity can reroute any job's candidate paths and merge
	// components, so every fingerprint may shift: clear wholesale.
	c.warmRET = nil
	c.planCache = nil
	return nil
}

// straddleEnd returns the end of the plan slice strictly containing t, or
// t itself when t falls on a slice boundary or outside the grid.
func straddleEnd(cm *commitment, t float64) float64 {
	grid := cm.plan.Inst.Grid
	for j := 0; j < grid.Num(); j++ {
		s := grid.Start(j)
		e := s + grid.Len(j)
		if s < t-1e-9 && t < e-1e-9 {
			return e
		}
		if s >= t {
			break
		}
	}
	return t
}

// planUsesEdge reports whether job k's plan routes flow over edge e on any
// slice ending after t.
func planUsesEdge(plan *schedule.Assignment, k int, e netgraph.EdgeID, t float64) bool {
	grid := plan.Inst.Grid
	for p, path := range plan.Inst.JobPaths[k] {
		onEdge := false
		for _, eid := range path.Edges {
			if eid == e {
				onEdge = true
				break
			}
		}
		if !onEdge {
			continue
		}
		for j := 0; j < grid.Num(); j++ {
			if grid.Start(j)+grid.Len(j) <= t+1e-9 {
				continue
			}
			if plan.X[k][p][j] > 1e-9 {
				return true
			}
		}
	}
	return false
}

// replanAfterFailure re-solves the rest of the committed period [b, end)
// over the residual topology and classifies the disrupted jobs. When every
// solve fails, the old plan is kept and settlement's down-filter restricts
// it to surviving links (the carry tier of the degradation chain).
func (c *Controller) replanAfterFailure(b float64, e netgraph.EdgeID, t float64, disrupted map[*activeJob]bool) {
	cm := c.commit
	if b >= cm.end-1e-9 {
		return // period effectively over; the next epoch replans anyway
	}

	// Retire jobs whose window from b cannot hold a whole slice: they can
	// receive nothing more, replanned or not.
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		winStart := math.Max(aj.orig.Start, b)
		if aj.effectiveEnd-winStart >= c.cfg.SliceLen-1e-9 {
			continue
		}
		aj.retired = true
		if disrupted[aj] {
			c.record(Record{
				Job:        aj.orig,
				Delivered:  aj.delivered,
				FinishTime: t,
				Completed:  false,
				Disrupted:  true,
			})
			c.addDisruption(aj.orig.ID, t, e, DisruptedDropped)
			delete(disrupted, aj)
		} else {
			c.record(Record{
				Job:        aj.orig,
				Delivered:  aj.delivered,
				FinishTime: aj.effectiveEnd,
				Completed:  false,
			})
		}
	}

	live := 0
	for _, aj := range c.active {
		if !aj.retired {
			live++
		}
	}
	if live == 0 {
		c.prevPlan, c.prevFresh = cm.plan, cm.fresh
		c.commit = nil
		return
	}

	inst, fresh, err := c.buildInstance(b)
	var plan *schedule.Assignment
	if err != nil {
		c.logDegrade(b, "replan after link failure: instance build failed", err)
	} else {
		plan, _ = c.solveChain(inst, fresh, b)
	}
	if plan != nil {
		c.commit = &commitment{
			plan: plan, fresh: fresh,
			start: b, end: cm.end, settled: b,
		}
	} else {
		// Carry tier: keep the old plan; the settlement filter excludes
		// every path over a failed link.
		c.logger.Warn("controller: replan failed, carrying schedule on residual links", "t", t, "edge", int(e))
	}

	// Classify the surviving disrupted jobs by their projected finish
	// under whatever plan is now in force.
	for _, aj := range c.active {
		if aj.retired || !disrupted[aj] {
			continue
		}
		finish, ok := c.projectedFinish(aj)
		if ok && finish <= aj.orig.End+1e-9 {
			c.addDisruption(aj.orig.ID, t, e, RescheduledOnTime)
		} else {
			c.addDisruption(aj.orig.ID, t, e, RescheduledLate)
		}
	}
}

// projectedFinish simulates the in-force plan over its whole horizon (not
// just the committed period) and returns when the job's residual demand
// completes; ok is false when the plan never completes it.
func (c *Controller) projectedFinish(aj *activeJob) (float64, bool) {
	cm := c.commit
	if cm == nil {
		return 0, false
	}
	k := -1
	for i, f := range cm.fresh {
		if f == aj {
			k = i
			break
		}
	}
	if k < 0 {
		return 0, false
	}
	grid := cm.plan.Inst.Grid
	blocked := c.blockedEdges(nil)
	rem := aj.remaining
	for j := 0; j < grid.Num(); j++ {
		end := grid.Start(j) + grid.Len(j)
		if end <= cm.settled+1e-9 {
			continue
		}
		got := 0.0
		for p := range cm.plan.X[k] {
			if blocked != nil && pathBlocked(cm.plan.Inst.JobPaths[k][p], blocked) {
				continue
			}
			got += cm.plan.X[k][p][j] * grid.Len(j)
		}
		if got > rem {
			got = rem
		}
		rem -= got
		if rem <= 1e-9 {
			return end, true
		}
	}
	return 0, false
}

// periodUsage measures how much of the committed period's network
// capacity the plan uses: scheduled wavelength·time units and the total
// available over all edges and slices inside [now, now+τ).
func (c *Controller) periodUsage(plan *schedule.Assignment, now float64) (scheduled, capacity float64) {
	if plan == nil {
		return 0, 0
	}
	grid := plan.Inst.Grid
	epochEnd := now + c.cfg.Tau
	load := plan.EdgeLoads()
	for j := 0; j < grid.Num(); j++ {
		if grid.Start(j)+grid.Len(j) <= now+1e-9 {
			continue // carried-forward grids can start before this period
		}
		if grid.Start(j) >= epochEnd-1e-9 {
			break
		}
		l := grid.Len(j)
		for e := 0; e < plan.Inst.G.NumEdges(); e++ {
			scheduled += load[e][j] * l
			capacity += float64(plan.Inst.Capacity(netgraph.EdgeID(e), j)) * l
		}
	}
	return scheduled, capacity
}

// admitPrefix finds the longest arrival-order prefix of the pending
// requests that, together with the already-admitted jobs, the network can
// complete on time (stage-1 Z* ≥ 1). Returns the prefix length.
func (c *Controller) admitPrefix(now float64) (int, error) {
	rank := c.cfg.PriorityRank
	sort.SliceStable(c.pending, func(a, b int) bool {
		if rank != nil {
			if ra, rb := rank(c.pending[a]), rank(c.pending[b]); ra != rb {
				return ra < rb
			}
		}
		return c.pending[a].Arrival < c.pending[b].Arrival
	})
	base, _ := c.snapshotJobs(now)
	usable := func(j job.Job) bool {
		return j.End-math.Max(j.Start, now) >= c.cfg.SliceLen-1e-9 && c.hasRoute(j)
	}
	feasible := func(n int) (bool, error) {
		jobs := append([]job.Job(nil), base...)
		for _, j := range c.pending[:n] {
			if !usable(j) {
				continue // rejected later regardless; ignore for the check
			}
			jj := j
			if jj.Start < now {
				jj.Start = now
			}
			if jj.Arrival > jj.Start {
				jj.Arrival = jj.Start
			}
			jobs = append(jobs, jj)
		}
		if len(jobs) == 0 {
			return true, nil
		}
		horizon := job.MaxEnd(jobs)
		ns := timeslice.CoverUntil(now, c.cfg.SliceLen, horizon)
		if ns < 1 {
			ns = 1
		}
		grid, err := timeslice.Uniform(now, c.cfg.SliceLen, ns)
		if err != nil {
			return false, err
		}
		inst, err := c.newInstance(grid, jobs, true)
		if err != nil {
			return false, err
		}
		s1, err := schedule.SolveStage1(inst, c.solverOpts())
		if err != nil {
			return false, err
		}
		return s1.ZStar >= 1-1e-9, nil
	}

	// Binary search the longest feasible prefix (monotone in n).
	lo, hi := 0, len(c.pending)
	okAll, err := feasible(hi)
	if err != nil {
		return 0, err
	}
	if okAll {
		return hi, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// snapshotJobs builds the job list for this epoch: each live active job
// with its residual demand and a window clipped to start no earlier than
// now. It also returns the active jobs aligned with the job list.
func (c *Controller) snapshotJobs(now float64) ([]job.Job, []*activeJob) {
	jobs := make([]job.Job, 0, len(c.active))
	fresh := make([]*activeJob, 0, len(c.active))
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		j := aj.orig
		j.Size = aj.remaining
		if j.Start < now {
			j.Start = now
		}
		j.End = aj.effectiveEnd
		if j.Arrival > j.Start {
			j.Arrival = j.Start
		}
		jobs = append(jobs, j)
		fresh = append(fresh, aj)
	}
	return jobs, fresh
}

// Summary aggregates the records.
type Summary struct {
	Total       int
	Completed   int
	MetDeadline int
	Rejected    int
	Disrupted   int // dropped mid-transfer by link failures
	Delivered   float64
	Requested   float64
	AvgFinish   float64 // over completed jobs
}

// Summarize computes aggregate statistics over the records.
func Summarize(records []Record) Summary {
	s := Summary{Total: len(records)}
	finishSum := 0.0
	for _, r := range records {
		s.Delivered += r.Delivered
		s.Requested += r.Job.Size
		if r.Rejected {
			s.Rejected++
			continue
		}
		if r.Disrupted {
			s.Disrupted++
		}
		if r.Completed {
			s.Completed++
			finishSum += r.FinishTime
		}
		if r.MetDeadline {
			s.MetDeadline++
		}
	}
	if s.Completed > 0 {
		s.AvgFinish = finishSum / float64(s.Completed)
	}
	return s
}

// SortRecordsByFinish orders records by finish time (stable), a
// convenience for reporting.
func SortRecordsByFinish(records []Record) {
	sort.SliceStable(records, func(a, b int) bool {
		return records[a].FinishTime < records[b].FinishTime
	})
}
