package controller

import (
	"fmt"
	"io"
	"log/slog"
	"slices"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// recordsBytes renders records with exact float formatting so warm and
// cold runs compare bit-for-bit (the WAL-replay determinism invariant).
func recordsBytes(recs []Record) string {
	s := ""
	for _, r := range recs {
		s += fmt.Sprintf("%d d=%b f=%b met=%v comp=%v rej=%v dis=%v\n",
			r.Job.ID, r.Delivered, r.FinishTime, r.MetDeadline, r.Completed, r.Rejected, r.Disrupted)
	}
	return s
}

// runScenario drives one controller through a multi-epoch overloaded
// scenario with a mid-run link failure and repair, returning the final
// records and epoch stats plus the number of RET solves that were handed
// a non-empty cross-epoch carry. Without carry, c.warmRET is cleared
// before every epoch and every failure replan, so each solve starts from
// nothing.
func runScenario(t *testing.T, cfg Config, carry bool) ([]Record, []EpochStat, int) {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 8, LinkPairs: 16, Wavelengths: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 6, Seed: 22, GBToDemand: 0.4, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Log noise from the disruption epochs is discarded.
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	carried := 0
	prepare := func() {
		if !carry {
			c.warmRET = nil
		}
		if len(c.warmRET) > 0 {
			carried++
		}
	}
	for i := 0; i < 30 && !c.Idle(); i++ {
		prepare()
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2:
			prepare()
			if err := c.LinkDown(netgraph.EdgeID(0), c.Now()+0.25); err != nil {
				t.Fatal(err)
			}
		case 5:
			if err := c.LinkUp(netgraph.EdgeID(0), c.Now()+0.25); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cfg.Policy != PolicyRET {
		carried = 0 // the carry map only feeds RET solves
	}
	return c.Records(), c.EpochStats(), carried
}

// requireSameRun fails unless two scenario runs produced bit-identical
// records and the same per-epoch schedule stats.
func requireSameRun(t *testing.T, freshRecs, carryRecs []Record, freshStats, carryStats []EpochStat) {
	t.Helper()
	if len(freshRecs) == 0 {
		t.Fatal("scenario produced no records")
	}
	if fb, cb := recordsBytes(freshRecs), recordsBytes(carryRecs); fb != cb {
		t.Errorf("records differ between no-carry and carry runs:\nno carry:\n%s\ncarry:\n%s", fb, cb)
	}
	if len(freshStats) != len(carryStats) {
		t.Fatalf("epoch count differs: no carry=%d carry=%d", len(freshStats), len(carryStats))
	}
	for i := range freshStats {
		if freshStats[i].Scheduled != carryStats[i].Scheduled ||
			freshStats[i].Utilization != carryStats[i].Utilization ||
			freshStats[i].Tier != carryStats[i].Tier {
			t.Errorf("epoch %d stats differ: no carry=%+v carry=%+v", i, freshStats[i], carryStats[i])
		}
	}
}

// TestControllerWarmByteIdenticalRecords runs the same fault scenario with
// the cross-epoch RET carry and without it, under both policies: every
// record and every epoch stat must be bit-identical, or WAL replay would
// diverge. BMax is sized so the first epoch runs a full bisection search
// (b̂ ≈ 4.35), which exercises chained re-entry and certificate pruning.
func TestControllerWarmByteIdenticalRecords(t *testing.T) {
	for _, pol := range []struct {
		name   string
		policy Policy
	}{
		{"ret", PolicyRET},
		{"maxthroughput", PolicyMaxThroughput},
	} {
		t.Run(pol.name, func(t *testing.T) {
			cfg := Config{Tau: 1, SliceLen: 1, K: 3, Policy: pol.policy, BMax: 5}
			pruned := telemetry.Default().Counter("lp_probe_pruned_total", "")
			before := pruned.Value()
			freshRecs, freshStats, _ := runScenario(t, cfg, false)
			carryRecs, carryStats, carried := runScenario(t, cfg, true)
			if pol.policy == PolicyRET {
				if carried == 0 {
					t.Error("no RET solve was handed the previous epoch's carry")
				}
				if pruned.Value() == before {
					t.Error("no probe was certificate-pruned")
				}
			}
			requireSameRun(t, freshRecs, carryRecs, freshStats, carryStats)
		})
	}
}

// TestLinkEventsInvalidateRETCarry: after an RET epoch, LinkDown(e)
// evicts exactly the carried entries whose component routes over e and
// keeps the rest untouched, and LinkUp clears the carry.
func TestLinkEventsInvalidateRETCarry(t *testing.T) {
	g := netgraph.Line(6, 2, 10)
	c := newCtrl(t, g, PolicyRET)
	for i, p := range [][2]netgraph.NodeID{{0, 1}, {2, 3}, {4, 5}} {
		if err := c.Submit(job.Job{ID: job.ID(i + 1), Src: p[0], Dst: p[1], Size: 2, Start: 0, End: 6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if len(c.warmRET) != 3 {
		t.Fatalf("RET epoch carried %d components, want 3", len(c.warmRET))
	}
	down := netgraph.EdgeID(-1)
	for _, e := range g.Edges() {
		if e.From == 0 && e.To == 1 {
			down = e.ID
		}
	}
	before := make(map[string]*schedule.ComponentBasis, len(c.warmRET))
	for k, v := range c.warmRET {
		before[k] = v
	}
	// At the period's end nothing is left to replan, so the carry map
	// reflects the eviction alone.
	if err := c.LinkDown(down, c.Now()); err != nil {
		t.Fatal(err)
	}
	evicted := 0
	for key, cb := range before {
		got, kept := c.warmRET[key]
		if slices.Contains(cb.Edges, down) {
			evicted++
			if kept {
				t.Errorf("component {%s} routes over the failed edge but kept its carry", key)
			}
		} else if got != cb {
			t.Errorf("component {%s} avoids the failed edge but lost or changed its carry", key)
		}
	}
	if evicted != 1 || len(c.warmRET) != 2 {
		t.Fatalf("evicted %d components, %d left; want 1 evicted, 2 left", evicted, len(c.warmRET))
	}
	if err := c.LinkUp(down, c.Now()); err != nil {
		t.Fatal(err)
	}
	if len(c.warmRET) != 0 {
		t.Errorf("LinkUp left %d carried components, want none", len(c.warmRET))
	}
}

// TestControllerPathCacheReuse checks that epoch-over-epoch instance
// builds stop recomputing path sets, including across a repeated failure
// of the same link.
func TestControllerPathCacheReuse(t *testing.T) {
	g := netgraph.Line(4, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	for i := 0; i < 3; i++ {
		if err := c.Submit(job.Job{
			ID: job.ID(i + 1), Src: 0, Dst: 3, Size: 2,
			Start: float64(i), End: float64(i) + 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.pathCache.Stats()
	if hits == 0 {
		t.Fatalf("no path-cache hits across epochs (misses=%d)", misses)
	}
	// Fail and repair the same link twice: the second failure epoch must
	// not add misses beyond the first.
	var down netgraph.EdgeID
	found := false
	for _, e := range g.Edges() {
		if e.From == 1 && e.To == 2 {
			down, found = e.ID, true
			break
		}
	}
	if !found {
		t.Fatal("no 1->2 edge in line graph")
	}
	cycle := func() {
		if err := c.LinkDown(down, c.Now()); err != nil {
			t.Fatal(err)
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := c.LinkUp(down, c.Now()); err != nil {
			t.Fatal(err)
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	_, missesAfterFirst := c.pathCache.Stats()
	cycle()
	_, missesAfterSecond := c.pathCache.Stats()
	if missesAfterSecond != missesAfterFirst {
		t.Errorf("repeated failure of the same link recomputed paths: misses %d -> %d",
			missesAfterFirst, missesAfterSecond)
	}
}
