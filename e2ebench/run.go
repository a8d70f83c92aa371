package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/server"
	"wavesched/internal/telemetry"
)

// setupReps is how many times a phase builds the daemon; setup_s is the
// median, and the last build serves the run.
const setupReps = 21

// maxDrainTicks bounds the untimed ticks that let every job finish after
// measurement (RET may stretch a window to (1+BMax) times its length).
const maxDrainTicks = 400

// verifyTol is the tolerance of the schedule checks.
const verifyTol = 1e-6

// phaseConfig is one measured pass over a workload.
type phaseConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	workDir string // parent of the phase's WAL directory
}

// phaseResult holds everything one phase measured.
type phaseResult struct {
	setupS       []float64
	submitMS     []float64 // per POST, measured periods
	submitPeriod []int     // measured period index of each submitMS sample
	epochMS      []float64 // per Tick, one per measured period
	periodOps    []int     // jobs + link events, per measured period
	periodWallS  []float64 // submit + link + tick wall time, per measured period

	periods  int     // measured periods
	ops      int     // jobs + link events in measured periods
	wallS    float64 // submit + link + tick wall time of measured periods
	verifyMS float64 // schedule checks of measured periods

	delta  instruments // registry change over the measured periods
	counts instruments // registry change over the fixed count window

	attempted, failed int
	failures          []string

	accepted                    int
	delivered, requested        float64
	metDeadline                 int
	plannedEpochs, degradedEpch int

	spans        []*span
	measureStart int64
	measureEnd   int64
	countPeriods int // length of the count window; 0 until it is reached
}

// fail records one failed operation.
func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// serverConfig is `wavesched serve`'s default configuration: K=4, α=0.1,
// BMax=5, 1 s slices, τ=2 s, snapshot every 1024 entries, 64 flight
// frames, admission on with no quotas, partial-Dantzig pricing, and every
// accelerator (WarmStart, ColumnGen, Incremental, Monolithic) at its zero
// value. Only the policy and the tracer vary.
func serverConfig(policy controller.Policy, walDir string, tr *telemetry.Tracer, logger *slog.Logger) server.Config {
	return server.Config{
		Controller: controller.Config{
			Tau: tau, SliceLen: sliceLen, K: 4, Alpha: 0.1, BMax: 5, Policy: policy,
			Solver: lp.Options{Pricing: lp.PartialDantzig, Tracer: tr},
			Tracer: tr,
		},
		WALDir:        walDir,
		SnapshotEvery: 1024,
		FlightFrames:  64,
		Admission:     &admission.Config{},
		Logger:        logger,
	}
}

// daemon is one running server behind a loopback listener.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	dir    string
	client *http.Client
}

// startDaemon loads the topology, opens the WAL and starts the listener:
// the work setup_s times.
func startDaemon(cfg phaseConfig, tr *telemetry.Tracer, logger *slog.Logger) (*daemon, *netgraph.Graph, error) {
	dir, err := os.MkdirTemp(cfg.workDir, cfg.w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.w.topology()
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	srv, err := server.New(g, serverConfig(cfg.w.policy, dir, tr, logger))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: cfg.w.conns, MaxIdleConnsPerHost: cfg.w.conns,
	}}
	return &daemon{srv: srv, ts: ts, dir: dir, client: client}, g, nil
}

// stop shuts the listener and the server down and removes the WAL.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	err := d.srv.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one JSON POST and returns the status and body.
func (d *daemon) post(path string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Post(d.ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runPhase builds the daemon setupReps times, runs warm-up periods, then
// measured periods for cfg.seconds (and at least the count window), then
// untimed drain ticks until every job has finished, and checks the
// outputs throughout.
func runPhase(cfg phaseConfig) (*phaseResult, error) {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	var traceBuf bytes.Buffer
	var tr *telemetry.Tracer
	if cfg.traced {
		tr = telemetry.NewTracer(&traceBuf)
	}
	res := &phaseResult{}
	var d *daemon
	var g *netgraph.Graph
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		d, g, err = startDaemon(cfg, tr, logger)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}
	r := &runner{cfg: cfg, d: d, tr: tr, res: res, gen: newStream(cfg.w, cfg.seed, g), accepted: make(map[int]bool)}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	for p := 0; p < cfg.w.warmup; p++ {
		r.period(false)
	}
	before := snapshot()
	start := time.Now()
	res.measureStart = start.UnixNano()
	for {
		ops0, wall0 := res.ops, res.wallS
		r.period(true)
		res.periodOps = append(res.periodOps, res.ops-ops0)
		res.periodWallS = append(res.periodWallS, res.wallS-wall0)
		res.periods++
		if res.periods == cfg.w.countPeriods {
			res.counts = before.delta(snapshot())
			res.countPeriods = res.periods
		}
		if res.periods >= cfg.w.countPeriods && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	res.measureEnd = time.Now().UnixNano()
	res.delta = before.delta(snapshot())

	// Drain: no arrivals, tick until nothing is pending or active.
	for i := 0; i < maxDrainTicks && !r.idle; i++ {
		r.tick(false)
	}
	if !r.idle {
		res.fail("controller still busy after %d drain ticks", maxDrainTicks)
	}

	// Settle and check the final accounting.
	srv := d.srv
	err := d.stop()
	d = nil
	res.attempted++
	if err != nil {
		res.fail("close: %v", err)
	}
	r.checkRecords(srv.Records())
	for _, st := range srv.Controller().EpochStats() {
		if st.Tier == "" {
			continue // nothing active: the epoch planned nothing
		}
		res.plannedEpochs++
		if st.Tier != controller.TierFull {
			res.degradedEpch++
		}
	}
	if cfg.traced {
		if err := tr.Flush(); err != nil {
			return nil, fmt.Errorf("trace flush: %w", err)
		}
		spans, err := parseSpans(&traceBuf)
		if err != nil {
			return nil, err
		}
		res.spans = spans
	}
	return res, nil
}

// runner drives one daemon period by period.
type runner struct {
	cfg      phaseConfig
	d        *daemon
	tr       *telemetry.Tracer
	res      *phaseResult
	gen      *stream
	epoch    int // ticks so far
	idle     bool
	accepted map[int]bool
	mu       sync.Mutex // guards res and accepted during parallel submits
}

// period sends one period's link event and arrivals, then ticks.
func (r *runner) period(measured bool) {
	in := r.gen.next()
	if in.link != nil {
		r.link(*in.link, measured)
	}
	r.submit(in.jobs, measured)
	r.tick(measured)
}

func (r *runner) link(ev linkEvent, measured bool) {
	action := "down"
	if ev.Up {
		action = "up"
	}
	sp := r.tr.Start("bench.link_event")
	t0 := time.Now()
	status, body, err := r.d.post("/v1/links/"+strconv.Itoa(ev.Edge)+"/"+action, map[string]float64{"t": ev.Time})
	el := time.Since(t0)
	sp.End()
	r.res.attempted++
	if measured {
		r.res.wallS += el.Seconds()
		r.res.ops++
	}
	if err != nil || status != http.StatusOK {
		r.res.fail("link %d %s: status %d err %v body %s", ev.Edge, action, status, err, body)
	}
}

// submit sends the period's jobs: one batch POST, or single POSTs spread
// over the workload's connections, and waits for every ack.
func (r *runner) submit(jobs []jobRequest, measured bool) {
	if len(jobs) == 0 {
		return
	}
	trace := r.tr.WithTrace(int64(r.epoch + 1)) // the epoch that will plan them
	t0 := time.Now()
	if r.cfg.w.batched {
		r.postBatch(trace, jobs, measured)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < r.cfg.w.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(jobs); i += r.cfg.w.conns {
					r.postSingle(trace, jobs[i], measured)
				}
			}(c)
		}
		wg.Wait()
	}
	if measured {
		r.res.wallS += time.Since(t0).Seconds()
		r.res.ops += len(jobs)
	}
}

func (r *runner) postSingle(trace *telemetry.Tracer, j jobRequest, measured bool) {
	sp := trace.Start("bench.submit")
	t0 := time.Now()
	status, body, err := r.d.post("/v1/jobs", j)
	el := time.Since(t0)
	sp.End()
	var resp struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	ok := err == nil && status == http.StatusAccepted && json.Unmarshal(body, &resp) == nil &&
		resp.ID == j.ID && resp.State == "pending"
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.attempted++
	if measured {
		r.res.submitMS = append(r.res.submitMS, ms(el))
		r.res.submitPeriod = append(r.res.submitPeriod, r.res.periods)
	}
	if !ok {
		r.res.fail("submit job %d: status %d err %v body %s", j.ID, status, err, body)
		return
	}
	r.accepted[j.ID] = true
}

func (r *runner) postBatch(trace *telemetry.Tracer, jobs []jobRequest, measured bool) {
	sp := trace.Start("bench.submit")
	t0 := time.Now()
	status, body, err := r.d.post("/v1/jobs/batch", map[string][]jobRequest{"jobs": jobs})
	el := time.Since(t0)
	sp.End()
	r.res.attempted += len(jobs)
	if measured {
		r.res.submitMS = append(r.res.submitMS, ms(el))
		r.res.submitPeriod = append(r.res.submitPeriod, r.res.periods)
	}
	var resp struct {
		Accepted int `json:"accepted"`
		Results  []struct {
			ID    int    `json:"id"`
			State string `json:"state"`
		} `json:"results"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(jobs) {
		for range jobs {
			r.res.fail("batch submit: status %d err %v body %.200s", status, err, body)
		}
		return
	}
	for i, jr := range resp.Results {
		if jr.ID != jobs[i].ID || jr.State != "pending" {
			r.res.fail("batch submit job %d: state %q", jobs[i].ID, jr.State)
			continue
		}
		r.accepted[jr.ID] = true
	}
}

// tick runs one epoch, then checks the committed schedule outside the
// timed interval.
func (r *runner) tick(measured bool) {
	r.epoch++
	trace := r.tr.WithTrace(int64(r.epoch))
	sp := trace.Start("bench.tick")
	t0 := time.Now()
	err := r.d.srv.Tick()
	el := time.Since(t0)
	sp.End()
	r.res.attempted++
	if measured {
		r.res.epochMS = append(r.res.epochMS, ms(el))
		r.res.wallS += el.Seconds()
	}
	if err != nil {
		r.res.fail("tick %d: %v", r.epoch, err)
	}

	// Tick returned holding no lock and no request is in flight, so the
	// controller is quiescent until the next call.
	vs := trace.Start("bench.verify")
	t1 := time.Now()
	ctrl := r.d.srv.Controller()
	r.res.attempted++
	if plan, _, _, ok := ctrl.CommittedSchedule(); ok {
		for _, check := range []func(float64) error{plan.VerifyCapacity, plan.VerifyWindows, plan.VerifyIntegral} {
			if err := check(verifyTol); err != nil {
				r.res.fail("epoch %d: %v", r.epoch, err)
			}
		}
	}
	r.idle = ctrl.Idle()
	if measured {
		r.res.verifyMS += ms(time.Since(t1))
	}
	vs.End()
}

// checkRecords checks the final accounting: every accepted job has
// exactly one record, and no job received more than it asked for.
func (r *runner) checkRecords(recs []controller.Record) {
	seen := make(map[int]int, len(recs))
	for _, rec := range recs {
		id := int(rec.Job.ID)
		seen[id]++
		if !r.accepted[id] {
			continue
		}
		r.res.delivered += rec.Delivered
		r.res.requested += rec.Job.Size
		if rec.MetDeadline {
			r.res.metDeadline++
		}
		if rec.Delivered > rec.Job.Size*(1+verifyTol)+verifyTol {
			r.res.fail("job %d delivered %g > requested %g", id, rec.Delivered, rec.Job.Size)
		}
	}
	for id := range r.accepted {
		r.res.attempted++
		if n := seen[id]; n != 1 {
			r.res.fail("job %d has %d records, want 1", id, n)
		}
	}
	r.res.accepted = len(r.accepted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nanToZero keeps NaN out of JSON output.
func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
