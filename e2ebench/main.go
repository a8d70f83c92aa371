// Command e2ebench drives the wavesched scheduler daemon end to end: the
// real server core behind a loopback HTTP listener, with a durable WAL
// and the admission subsystem on, configured as `wavesched serve` is by
// default. A closed-loop client posts each period's seeded arrivals (and
// link events), waits for every durable ack, then ticks one epoch. See
// README.md for the workloads, metrics and how to read a traced run.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload ret-abilene --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one line of the human-readable table; Samples is 0 where the
// figure is not a statistic over samples.
type row struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Beyond  int     `json:"beyond,omitempty"` // samples above a percentile
	// Blocks holds the per-block values whose median Value is.
	Blocks []float64 `json:"blocks,omitempty"`
}

// workCount is a deterministic work count over the fixed count window.
type workCount struct {
	Value   float64 `json:"value"`
	Periods int     `json:"periods"`
	Repeats bool    `json:"repeats"`
}

// repeatable lists the work counts and whether each repeats exactly
// across runs of one seed. The number of fsyncs never does: it depends on
// how the intake pump's group commits happen to split each period's
// submissions. The solver's counts do when one connection submits; with
// several, the order in which the intake drain sees concurrent
// submissions varies, the controller plans its jobs in that order, and
// the pivot count follows.
var repeatable = []struct {
	name, key      string
	repeats        bool
	orderSensitive bool
}{
	{"lp.pivots", "lp_pivots", true, true},
	{"lp.solves", "lp_solves", true, false},
	{"schedule.ret_search_steps", "ret_search_steps", true, true},
	{"store.fsyncs", "fsyncs", false, false},
}

// repeats reports whether work count i repeats exactly for workload w.
func repeats(i int, w workload) bool {
	c := repeatable[i]
	return c.repeats && !(c.orderSensitive && w.conns > 1)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or \"all\" to run every workload in turn")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same jobs and link events")
	seconds := fs.Float64("seconds", 30, "measured wall time per run")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/run", "directory for the temporary WAL directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	// Flush dirty pages first (the build's outputs, the previous run's WAL
	// directories) so their writeback does not stall this run's fsyncs.
	syscall.Sync()
	cfg := phaseConfig{w: w, seed: *seed, seconds: *seconds, workDir: *workDir}
	rep, err := measure(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// report is everything one run prints.
type report struct {
	workload string
	seed     int64
	traced   bool
	host     host
	rows     []row // the contract metrics
	extra    []row // shown in the table and detail line only
	counts   map[string]workCount
	layers   []spanStat
	coverage *coverage
	failures []string
	result   result
}

// coverage checks the traced run's attribution: the self times add up to
// the summed durations of the driver's root spans, and the wall time those
// roots cover (concurrent submits overlap) matches the driver's stopwatch.
type coverage struct {
	SelfSumMS   float64 `json:"self_sum_ms"`
	RootSumMS   float64 `json:"root_sum_ms"`
	RootWallMS  float64 `json:"root_wall_ms"`
	StopwatchMS float64 `json:"stopwatch_ms"`
	Orphans     int     `json:"orphans"`
}

// measure runs a workload: one untraced phase, plus a traced phase when
// traced is set (the seconds are then split between the two).
func measure(cfg phaseConfig, traced bool) (*report, error) {
	rep := &report{workload: cfg.w.name, seed: cfg.seed, traced: traced}
	if traced {
		cfg.seconds /= 2
	}
	plain, err := runPhase(cfg)
	if err != nil {
		return nil, err
	}
	rep.host = fingerprint(cfg.workDir) // the WAL directories live inside it
	rep.counts = workCounts(cfg.w, plain)
	rep.failures = plain.failures
	rep.result = result{
		Correct: plain.failed == 0, Attempted: plain.attempted, Failed: plain.failed,
		Metrics: map[string]metric{},
	}
	if !traced {
		rep.rows = endToEnd(plain)
		rep.extra = extraRows(plain)
	} else {
		tcfg := cfg
		tcfg.traced = true
		tp, err := runPhase(tcfg)
		if err != nil {
			return nil, err
		}
		rep.result.Correct = rep.result.Correct && tp.failed == 0
		rep.result.Attempted += tp.attempted
		rep.result.Failed += tp.failed
		rep.failures = append(rep.failures, tp.failures...)
		rep.rows, rep.layers, rep.coverage = perLayer(plain, tp)
	}
	for _, r := range rep.rows {
		rep.result.Metrics[r.Name] = metric{Value: nanToZero(r.Value), Unit: r.Unit}
	}
	return rep, nil
}

func workCounts(w workload, r *phaseResult) map[string]workCount {
	out := make(map[string]workCount)
	if r.countPeriods == 0 {
		return out
	}
	for i, c := range repeatable {
		out[c.name] = workCount{Value: r.counts[c.key], Periods: r.countPeriods, Repeats: repeats(i, w)}
	}
	return out
}

// measureBlocks is how many equal runs of consecutive measured periods
// the rates and percentiles are computed over; each figure reported is the
// median across blocks, so a stall of the host during one block moves it
// little.
const measureBlocks = 5

// blockValues evaluates f on each block's period range [lo, hi).
func blockValues(periods int, f func(lo, hi int) float64) []float64 {
	var vals []float64
	for b := 0; b < measureBlocks; b++ {
		lo, hi := b*periods/measureBlocks, (b+1)*periods/measureBlocks
		if hi > lo {
			vals = append(vals, f(lo, hi))
		}
	}
	return vals
}

// rateRow is the block median of jobs and link events per wall second.
func rateRow(r *phaseResult) row {
	vals := blockRates(r)
	return row{Name: "jobs_per_s", Value: median(vals), Unit: "1/s", Samples: r.ops, Blocks: vals}
}

func blockRates(r *phaseResult) []float64 {
	return blockValues(r.periods, func(lo, hi int) float64 {
		ops, wall := 0, 0.0
		for p := lo; p < hi; p++ {
			ops += r.periodOps[p]
			wall += r.periodWallS[p]
		}
		return ratio(float64(ops), wall)
	})
}

// blockPct is the block median of the q-th percentile of samples, where
// period[i] is the measured period sample i belongs to (nil: sample i
// belongs to period i). The sample count reported beside it is the
// smallest block's.
func blockPct(name string, r *phaseResult, samples []float64, period []int, q float64) row {
	smallest := len(samples)
	vals := blockValues(r.periods, func(lo, hi int) float64 {
		var in []float64
		for i, x := range samples {
			p := i
			if period != nil {
				p = period[i]
			}
			if p >= lo && p < hi {
				in = append(in, x)
			}
		}
		smallest = min(smallest, len(in))
		return percentile(in, q)
	})
	return row{Name: name, Value: median(vals), Unit: "ms", Samples: smallest, Beyond: beyond(smallest, q), Blocks: vals}
}

// endToEnd computes the user-facing metrics of an untraced phase.
func endToEnd(r *phaseResult) []row {
	rows := []row{
		{Name: "setup_s", Value: median(r.setupS), Unit: "s", Samples: len(r.setupS)},
		rateRow(r),
		blockPct("epoch_ms_p50", r, r.epochMS, nil, 50),
		blockPct("epoch_ms_p90", r, r.epochMS, nil, 90),
		{Name: "delivered_frac", Value: ratio(r.delivered, r.requested), Unit: "ratio", Samples: r.accepted},
		{Name: "deadline_met_frac", Value: ratio(float64(r.metDeadline), float64(r.accepted)), Unit: "ratio", Samples: r.accepted},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MiB"},
	}
	return rows
}

// extraRows are reported in the table (and the detail line) but not in
// the contract line. A correct run reads exactly 0 on the two fractions.
// The ack latencies are fsync-bound, and on a shared host their run-to-run
// spread exceeds any bound the benchmark may set, so they are gated only
// as per-layer figures (server.submit_ms_*).
func extraRows(r *phaseResult) []row {
	return []row{
		blockPct("submit_ms_p50", r, r.submitMS, r.submitPeriod, 50),
		blockPct("submit_ms_p90", r, r.submitMS, r.submitPeriod, 90),
		{Name: "degraded_epoch_frac", Value: ratio(float64(r.degradedEpch), float64(r.plannedEpochs)), Unit: "ratio", Samples: r.plannedEpochs},
		{Name: "failed_frac", Value: ratio(float64(r.failed), float64(r.attempted)), Unit: "ratio", Samples: r.attempted},
	}
}

// perLayer computes the per-layer metrics from the traced phase, with the
// tracing overhead taken against the untraced phase of the same run.
func perLayer(plain, tp *phaseResult) ([]row, []spanStat, *coverage) {
	d := tp.delta
	roots, orphans := buildForest(tp.spans)
	var measured []*span
	for _, s := range roots {
		if s.Start >= tp.measureStart && s.End <= tp.measureEnd && s.Name != "bench.verify" {
			measured = append(measured, s)
		}
	}
	table := selfTable(measured)
	self := make(map[string]float64)
	cov := &coverage{Orphans: orphans, StopwatchMS: tp.wallS * 1e3}
	for _, st := range table {
		self[st.Name] = st.SelfMS
		cov.SelfSumMS += st.SelfMS
	}
	var end int64 // roots are sorted by start; merge overlapping intervals
	for _, s := range measured {
		cov.RootSumMS += float64(s.dur()) / 1e6
		if lo := max(s.Start, end); s.End > lo {
			cov.RootWallMS += float64(s.End-lo) / 1e6
		}
		end = max(end, s.End)
	}
	p50 := blockPct("server.submit_ms_p50", plain, plain.submitMS, plain.submitPeriod, 50)
	p90 := blockPct("server.submit_ms_p90", plain, plain.submitMS, plain.submitPeriod, 90)
	rows := []row{
		p50, p90,
		{Name: "server.request_ms_mean", Value: 1e3 * ratio(d["http_seconds"], d["http_requests"]), Unit: "ms", Samples: int(d["http_requests"])},
		{Name: "admission.jobs_per_wal_append", Value: ratio(d["jobs_submitted"], d["intake_batches"]), Unit: "jobs/append", Samples: int(d["intake_batches"])},
		{Name: "store.fsyncs", Value: d["fsyncs"], Unit: "count"},
		{Name: "store.fsync_ms_sum", Value: 1e3 * d["fsync_seconds"], Unit: "ms"},
		{Name: "controller.epoch_self_ms_sum", Value: self["controller.epoch"], Unit: "ms"},
		{Name: "controller.degraded_epochs", Value: d["degraded_epochs"], Unit: "count"},
		{Name: "controller.degraded_epoch_frac", Value: ratio(float64(tp.degradedEpch), float64(tp.plannedEpochs)), Unit: "ratio", Samples: tp.plannedEpochs},
		{Name: "schedule.stage1_ms_sum", Value: 1e3 * d["stage1_seconds"], Unit: "ms"},
		{Name: "schedule.stage2_ms_sum", Value: 1e3 * d["stage2_seconds"], Unit: "ms"},
		{Name: "schedule.stage2_alpha_retries", Value: d["alpha_retries"], Unit: "count"},
		{Name: "schedule.components", Value: d["components"], Unit: "count"},
		{Name: "schedule.pathcache_hit_ratio", Value: ratio(d["pathcache_hits"], d["pathcache_hits"]+d["pathcache_misses"]), Unit: "ratio"},
		{Name: "schedule.lpdar_adjustments", Value: d["lpdar_adjustments"], Unit: "count"},
		{Name: "schedule.ret_self_ms_sum", Value: self["schedule.ret"] + self["schedule.ret_component"], Unit: "ms"},
		{Name: "schedule.ret_search_steps", Value: d["ret_search_steps"], Unit: "count"},
		{Name: "schedule.ret_delta_rounds", Value: d["ret_delta_rounds"], Unit: "count"},
		{Name: "lp.solves", Value: d["lp_solves"], Unit: "count"},
		{Name: "lp.solve_ms_sum", Value: 1e3 * d["lp_solve_seconds"], Unit: "ms"},
		{Name: "lp.pivots", Value: d["lp_pivots"], Unit: "count"},
		{Name: "lp.pivots_per_solve", Value: ratio(d["lp_pivots"], d["lp_solves"]), Unit: "pivots"},
		{Name: "lp.phase1_pivots", Value: d["lp_phase1_pivots"], Unit: "count"},
		{Name: "lp.warmstart_hit_ratio", Value: ratio(d["lp_warm_hits"], d["lp_warm_hits"]+d["lp_warm_fallbacks"]), Unit: "ratio"},
		{Name: "lp.probes_pruned", Value: d["lp_probes_pruned"], Unit: "count"},
		{Name: "lp.timeouts", Value: d["lp_timeouts"], Unit: "count"},
		{Name: "telemetry.trace_overhead_frac", Value: ratio(median(blockRates(plain)), median(blockRates(tp))) - 1, Unit: "ratio"},
		{Name: "verify.ms_sum", Value: tp.verifyMS, Unit: "ms", Samples: len(tp.epochMS)},
		{Name: "bench.periods", Value: float64(tp.periods), Unit: "count"},
	}
	return rows, table, cov
}

// print writes the human-readable report, a detail JSON line, and the
// contract line last.
func (rep *report) print(w io.Writer) {
	mode := "untraced"
	if rep.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d run=%s\n", rep.workload, rep.seed, mode)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s cpu=%q wal_fs=%s\n",
		rep.host.NumCPU, rep.host.GOMAXPROCS, rep.host.GoVersion, rep.host.CPUModel, rep.host.WALFS)
	fmt.Fprintf(w, "%-32s %14s  %-12s %s\n", "metric", "value", "unit", "samples (percentiles: per block, median of blocks)")
	for _, r := range append(rep.rows, rep.extra...) {
		samples := ""
		if r.Samples > 0 {
			samples = strconv.Itoa(r.Samples)
			if r.Beyond > 0 {
				samples += fmt.Sprintf(" (%d beyond)", r.Beyond)
			}
		}
		fmt.Fprintf(w, "%-32s %14.6g  %-12s %s\n", r.Name, r.Value, r.Unit, samples)
	}
	if len(rep.counts) > 0 {
		fmt.Fprintln(w, "work counts over the fixed count window:")
		for _, c := range repeatable {
			wc := rep.counts[c.name]
			fmt.Fprintf(w, "  %-30s %14.0f  periods=%d repeats=%v\n", c.name, wc.Value, wc.Periods, wc.Repeats)
		}
	}
	if rep.layers != nil {
		fmt.Fprintln(w, "self time per span over the traced measured periods:")
		fmt.Fprintf(w, "  %-24s %8s %12s %12s  %s\n", "span", "count", "total_ms", "self_ms", "layer")
		for _, st := range rep.layers {
			fmt.Fprintf(w, "  %-24s %8d %12.2f %12.2f  %s\n", st.Name, st.Count, st.TotalMS, st.SelfMS, spanLayer(st.Name))
		}
		c := rep.coverage
		fmt.Fprintf(w, "  self-time sum %.2f ms = root span sum %.2f ms; root wall %.2f ms vs driver stopwatch %.2f ms; unplaced spans %d\n",
			c.SelfSumMS, c.RootSumMS, c.RootWallMS, c.StopwatchMS, c.Orphans)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	detail := map[string]any{
		"workload": rep.workload, "seed": rep.seed, "traced": rep.traced,
		"host": rep.host, "rows": append(rep.rows, rep.extra...), "work_counts": rep.counts,
	}
	if rep.coverage != nil {
		detail["spans"] = rep.layers
		detail["coverage"] = rep.coverage
	}
	if line, err := json.Marshal(map[string]any{"detail": detail}); err == nil {
		fmt.Fprintln(w, string(line))
	} else {
		fmt.Fprintln(os.Stderr, "e2ebench: detail line:", err)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: result line:", err)
		return
	}
	fmt.Fprintln(w, string(line))
}

// runAll runs every workload in its own child process (so peak memory and
// the process-wide telemetry registry stay per workload), relays their
// output, and prints one combined contract line with workload-prefixed
// metric names.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		rest = append(rest, a)
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(filepath.Clean(self), append([]string{"--workload", w.name}, rest...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		if err := cmd.Wait(); err != nil {
			code = 1
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			total.Correct = false
			code = 1
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	return code
}
