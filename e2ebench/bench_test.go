package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its argument")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}

func TestBlockMedian(t *testing.T) {
	// Five blocks of two periods: [0,2) [2,4) ... [8,10).
	var spans [][2]int
	got := median(blockValues(10, func(lo, hi int) float64 {
		spans = append(spans, [2]int{lo, hi})
		return float64(lo)
	}))
	if want := [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}}; !reflect.DeepEqual(spans, want) {
		t.Errorf("blocks %v, want %v", spans, want)
	}
	if got != 4 {
		t.Errorf("median of block values = %g, want 4", got)
	}
}

// sp builds a span over [start, end) in nanoseconds.
func sp(id, trace, parent int64, name string, start, end int64) *span {
	return &span{ID: id, Trace: trace, Parent: parent, Name: name, Start: start, End: end}
}

func selfOf(roots []*span) map[string]float64 {
	out := make(map[string]float64)
	for _, st := range selfTable(roots) {
		out[st.Name] = st.SelfMS * 1e6 // back to nanoseconds
	}
	return out
}

func TestSelfTimeSequentialChildren(t *testing.T) {
	// bench.tick [0,100) ⊃ controller.epoch [10,90) (linked by trace)
	//   ⊃ lp.solve [20,40) and lp.solve [50,60) (linked by parent ID).
	spans := []*span{
		sp(1, 7, 0, "bench.tick", 0, 100),
		sp(2, 7, 0, "controller.epoch", 10, 90),
		sp(3, 7, 2, "lp.solve", 20, 40),
		sp(4, 7, 2, "lp.solve", 50, 60),
	}
	roots, orphans := buildForest(spans)
	if len(roots) != 1 || orphans != 0 {
		t.Fatalf("roots %d orphans %d, want 1 and 0", len(roots), orphans)
	}
	got := selfOf(roots)
	want := map[string]float64{"bench.tick": 20, "controller.epoch": 50, "lp.solve": 30}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self %s = %g, want %g", k, got[k], v)
		}
	}
}

func TestSelfTimeParallelChildrenShare(t *testing.T) {
	// Two overlapping children [10,50) and [30,70) under [0,100): the
	// overlap [30,50) is split between them, and a grandchild [12,18)
	// takes its interval from the first child.
	spans := []*span{
		sp(1, 3, 0, "bench.tick", 0, 100),
		sp(2, 3, 1, "a", 10, 50),
		sp(3, 3, 1, "b", 30, 70),
		sp(4, 3, 2, "c", 12, 18),
	}
	roots, _ := buildForest(spans)
	got := selfOf(roots)
	want := map[string]float64{"bench.tick": 40, "a": 20 - 6 + 10, "b": 20 + 10, "c": 6}
	total := 0.0
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self %s = %g, want %g", k, got[k], v)
		}
		total += got[k]
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("self times add up to %g, want the root's 100", total)
	}
}

func TestBuildForestOrphansAndTraceLinking(t *testing.T) {
	spans := []*span{
		sp(1, 1, 0, "bench.tick", 0, 100),
		sp(2, 2, 0, "bench.tick", 100, 200),
		sp(3, 2, 0, "controller.epoch", 110, 190), // trace 2: under the second tick
		sp(4, 9, 0, "controller.epoch", 10, 20),   // no root in trace 9
		sp(5, 1, 99, "lp.solve", 10, 20),          // unknown parent
	}
	roots, orphans := buildForest(spans)
	if orphans != 2 {
		t.Errorf("orphans = %d, want 2", orphans)
	}
	if len(roots[1].children) != 1 || roots[1].children[0].ID != 3 {
		t.Errorf("epoch of trace 2 not linked under the trace-2 tick")
	}
	if len(roots[0].children) != 0 {
		t.Errorf("trace-1 tick has %d children, want 0", len(roots[0].children))
	}
}

func TestParseSpansFromTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	root := tr.WithTrace(4).Start("bench.tick")
	ep := tr.WithTrace(4).Start("controller.epoch")
	solve := ep.Tracer().Start("lp.solve")
	ep.Tracer().Event("ret.search_step")
	solve.End()
	ep.End()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := parseSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("parsed %d spans, want 3 (events skipped)", len(spans))
	}
	roots, orphans := buildForest(spans)
	if len(roots) != 1 || orphans != 0 {
		t.Fatalf("roots %d orphans %d, want 1 and 0", len(roots), orphans)
	}
	epoch := roots[0].children
	if len(epoch) != 1 || epoch[0].Name != "controller.epoch" || len(epoch[0].children) != 1 {
		t.Fatalf("tree not rebuilt: %+v", roots[0])
	}
	total := 0.0
	for _, st := range selfTable(roots) {
		total += st.SelfMS
	}
	if want := float64(roots[0].dur()) / 1e6; math.Abs(total-want) > 1e-9 {
		t.Errorf("self times add up to %g ms, want the root's %g ms", total, want)
	}
}

func TestStreamDeterministic(t *testing.T) {
	g := netgraph.AbileneDense(abileneWaves)
	w, err := lookupWorkload("intake-abilene")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) []periodInput {
		s := newStream(w, seed, g)
		var out []periodInput
		for i := 0; i < 20; i++ {
			out = append(out, s.next())
		}
		return out
	}
	a, b := gen(3), gen(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different inputs")
	}
	if reflect.DeepEqual(a, gen(4)) {
		t.Fatal("different seeds generated the same inputs")
	}
	ids := make(map[int]bool)
	for p, in := range a {
		for _, j := range in.jobs {
			if ids[j.ID] {
				t.Fatalf("duplicate job ID %d", j.ID)
			}
			ids[j.ID] = true
			win := int(math.Round(j.End - j.Start))
			if j.Start != float64(p)*tau || j.Arrival != j.Start || win < w.minWin || win > w.maxWin || j.Src == j.Dst {
				t.Fatalf("period %d: bad job %+v", p, j)
			}
			if rate := j.Size / float64(win); rate < w.minRate || rate > w.maxRate {
				t.Fatalf("period %d: rate %g outside [%g, %g]", p, rate, w.minRate, w.maxRate)
			}
		}
	}
}

func TestStreamCyclesPairs(t *testing.T) {
	g := netgraph.AbileneDense(abileneWaves)
	w := workload{jobsPerPeriod: 10, minWin: 2, maxWin: 4, minRate: 1, maxRate: 2}
	s := newStream(w, 9, g)
	n := g.NumNodes() * (g.NumNodes() - 1)
	seen := make(map[[2]int]int)
	for len(seen) < n && s.period < 100 {
		for _, j := range s.next().jobs {
			seen[[2]int{j.Src, j.Dst}]++
		}
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct pairs, want all %d", len(seen), n)
	}
	for p, c := range seen {
		if c > 1 {
			t.Fatalf("pair %v used %d times within one cycle", p, c)
		}
	}
}

func TestStreamLinkEvents(t *testing.T) {
	g := netgraph.AbileneDense(abileneWaves)
	w := workload{jobsPerPeriod: 1, minWin: 2, maxWin: 2, minRate: 1, maxRate: 1, linkEvery: 2, maxDown: 2}
	s := newStream(w, 1, g)
	var events []linkEvent
	for p := 0; p < 12; p++ {
		if in := s.next(); in.link != nil {
			if in.link.Time != float64(p)*tau-tau/2 {
				t.Fatalf("period %d: link event at %g, want mid-period", p, in.link.Time)
			}
			events = append(events, *in.link)
		}
	}
	down := make(map[int]bool)
	for _, ev := range events {
		if ev.Up {
			if !down[ev.Edge] {
				t.Fatalf("edge %d brought up while not down", ev.Edge)
			}
			delete(down, ev.Edge)
		} else {
			if down[ev.Edge] {
				t.Fatalf("edge %d taken down twice", ev.Edge)
			}
			down[ev.Edge] = true
		}
		if len(down) > w.maxDown {
			t.Fatalf("%d links down, want at most %d", len(down), w.maxDown)
		}
	}
	if len(events) != 5 {
		t.Fatalf("%d link events, want 5", len(events))
	}
}

// smoke shortens a workload to a few periods.
func smoke(t *testing.T, name string) phaseConfig {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.countPeriods = 3, 8
	return phaseConfig{w: w, seed: 1, seconds: 0, workDir: t.TempDir()}
}

func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestSmokeWorkloads(t *testing.T) {
	chdirRepoRoot(t) // scale400 reads examples/ relative to the repository root
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smoke(t, w.name)
			first, err := runPhase(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.failed != 0 {
				t.Fatalf("%d failed operations: %v", first.failed, first.failures)
			}
			if first.attempted == 0 || first.accepted == 0 || first.periods < 8 || len(first.epochMS) != first.periods {
				t.Fatalf("nothing measured: %+v", first)
			}
			if len(first.setupS) != setupReps {
				t.Errorf("%d set-ups timed, want %d", len(first.setupS), setupReps)
			}
			rows := endToEnd(first)
			for _, r := range rows {
				if math.IsNaN(r.Value) || r.Value <= 0 {
					t.Errorf("%s = %g, want a positive value", r.Name, r.Value)
				}
			}
			// The repeatable work counts repeat for the same seed.
			second, err := runPhase(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range repeatable {
				if repeats(i, cfg.w) && first.counts[c.key] != second.counts[c.key] {
					t.Errorf("%s: %g then %g for the same seed", c.name, first.counts[c.key], second.counts[c.key])
				}
			}
		})
	}
}

func TestTracedSmokeAddsUp(t *testing.T) {
	cfg := smoke(t, "ret-abilene")
	plain, err := runPhase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.traced = true
	tp, err := runPhase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tp.failed != 0 {
		t.Fatalf("traced run failed: %v", tp.failures)
	}
	rows, table, cov := perLayer(plain, tp)
	if cov.Orphans != 0 {
		t.Errorf("%d spans not linked to a root", cov.Orphans)
	}
	if cov.RootSumMS <= 0 || math.Abs(cov.SelfSumMS-cov.RootSumMS) > 1e-6*cov.RootSumMS {
		t.Errorf("self-time sum %g ms, root span sum %g ms", cov.SelfSumMS, cov.RootSumMS)
	}
	// One connection: roots never overlap, and they cover what the
	// stopwatch timed.
	if math.Abs(cov.RootWallMS-cov.RootSumMS) > 1e-9*cov.RootSumMS || math.Abs(cov.RootWallMS-cov.StopwatchMS) > 0.05*cov.StopwatchMS {
		t.Errorf("root wall %g ms, root span sum %g ms, stopwatch %g ms", cov.RootWallMS, cov.RootSumMS, cov.StopwatchMS)
	}
	names := make(map[string]bool)
	for _, st := range table {
		names[st.Name] = true
	}
	for _, n := range []string{"bench.tick", "bench.submit", "controller.epoch", "schedule.ret", "lp.solve"} {
		if !names[n] {
			t.Errorf("no %s spans in the traced run", n)
		}
	}
	byName := make(map[string]float64)
	for _, r := range rows {
		byName[r.Name] = r.Value
	}
	if byName["schedule.ret_search_steps"] <= 0 || byName["lp.solves"] <= 0 || byName["controller.epoch_self_ms_sum"] <= 0 {
		t.Errorf("per-layer counters empty: %v", byName)
	}
}

func TestContractLine(t *testing.T) {
	chdirRepoRoot(t)
	var out bytes.Buffer
	code := run([]string{"--workload", "ret-abilene", "--seed", "2", "--seconds", "0", "--trace", "0", "--workdir", t.TempDir()}, &out)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("contract line keys %v", keys)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "jobs_per_s", "epoch_ms_p50", "epoch_ms_p90", "delivered_frac", "deadline_met_frac", "peak_rss_mb"} {
		if m, ok := metrics[name]; !ok || m.Unit == "" {
			t.Errorf("metric %s missing or without unit", name)
		}
	}
	if len(metrics) != 7 {
		t.Errorf("%d metrics in an untraced run, want 7", len(metrics))
	}
}
