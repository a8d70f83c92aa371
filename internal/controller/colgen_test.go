package controller

import (
	"io"
	"log/slog"
	"testing"

	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// TestControllerColumnGenWarmByteIdentical runs the fault scenario with
// column generation under both policies, with the cross-epoch RET carry
// and without it: the records and epoch stats must be bit-identical —
// pricing is deterministic, so the grown path sets (and therefore the
// schedules) cannot depend on basis or certificate reuse.
func TestControllerColumnGenWarmByteIdentical(t *testing.T) {
	for _, pol := range []struct {
		name   string
		policy Policy
	}{
		{"ret", PolicyRET},
		{"maxthroughput", PolicyMaxThroughput},
	} {
		t.Run(pol.name, func(t *testing.T) {
			cfg := Config{Tau: 1, SliceLen: 1, Policy: pol.policy, BMax: 3, ColumnGen: true}
			solvesBefore := telemetry.Default().Counter("schedule_colgen_solves_total", "").Value()
			freshRecs, freshStats, _ := runScenario(t, cfg, false)
			if telemetry.Default().Counter("schedule_colgen_solves_total", "").Value() == solvesBefore {
				t.Fatal("scenario never engaged the column-generation pricing loop")
			}
			carryRecs, carryStats, _ := runScenario(t, cfg, true)
			delivered := 0.0
			for _, r := range freshRecs {
				delivered += r.Delivered
			}
			if delivered == 0 {
				t.Fatal("nothing delivered under column generation")
			}
			requireSameRun(t, freshRecs, carryRecs, freshStats, carryStats)
		})
	}
}

// TestControllerColumnGenCrossEpochReuse checks that on a stable topology
// the pricing loop converges across epochs: once the first epochs have
// discovered the columns the workload needs, later epochs start from the
// published PathCache sets and price in nothing new.
func TestControllerColumnGenCrossEpochReuse(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 10, LinkPairs: 20, Wavelengths: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 8, Seed: 9, GBToDemand: 0.3, MinWindow: 4, MaxWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, Policy: PolicyMaxThroughput, ColumnGen: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	paths := telemetry.Default().Counter("schedule_colgen_paths_total", "")
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	afterFirst := paths.Value()
	for i := 0; i < 3 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// Identical pair sets re-enter through the PathCache: later epochs may
	// discover columns for shrunken residual windows, but a fixed workload
	// on a stable topology must stop discovering quickly.
	if added := paths.Value() - afterFirst; added > afterFirst {
		t.Errorf("later epochs priced in %d paths, first epoch only %d — cross-epoch reuse not engaging",
			added, afterFirst)
	}
	hits, _ := c.pathCache.Stats()
	if hits == 0 {
		t.Error("no path-cache hits across colgen epochs")
	}
}
