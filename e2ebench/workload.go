package main

import (
	"fmt"
	"math/rand"
	"os"

	"wavesched/internal/controller"
	"wavesched/internal/netgraph"
)

// Scheduling constants shared by every workload: the defaults of
// `wavesched serve` (τ = 2 s of virtual time, 1 s slices).
const (
	tau      = 2.0
	sliceLen = 1.0
)

// workload is one traffic mix driven through the daemon. Only the
// topology, the policy and the arrival stream differ between workloads;
// the server configuration is always serve's default.
type workload struct {
	name string

	policy   controller.Policy
	topology func() (*netgraph.Graph, error)

	// Client shape: conns parallel connections; batched workloads send
	// each period's arrivals as one POST /v1/jobs/batch, the others POST
	// every job singly to /v1/jobs.
	conns   int
	batched bool

	// Arrival stream: jobsPerPeriod requests each period, windows of
	// minWin..maxWin slices starting at the period's scheduling instant,
	// and a size of window × rate, with the rate uniform in
	// [minRate, maxRate] wavelengths.
	jobsPerPeriod    int
	minWin, maxWin   int
	minRate, maxRate float64

	// linkEvery > 0 sends a link event every linkEvery periods: a seeded
	// edge goes down in the middle of the committed period, or — once
	// maxDown links are down — the oldest comes back up.
	linkEvery int
	maxDown   int

	// warmup periods run before measurement so the active set reaches its
	// steady size; countPeriods is the fixed-length window over which the
	// deterministic work counts are taken.
	warmup       int
	countPeriods int
}

// abileneWaves is the per-link wavelength count of the Abilene workloads,
// matching the 4 wavelengths per link of the committed scale topologies.
const abileneWaves = 4

// scale400Path is the committed 400-node topology, relative to the
// repository root the benchmark runs from.
const scale400Path = "examples/scale/scale400.json"

func abilene() (*netgraph.Graph, error) { return netgraph.AbileneDense(abileneWaves), nil }

func scale400() (*netgraph.Graph, error) {
	f, err := os.Open(scale400Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netgraph.ReadJSON(f)
}

// workloads lists every workload in the order `--workload all` runs them.
var workloads = []workload{
	// Many small short-window jobs POSTed singly: per-epoch LPs stay small,
	// so HTTP, admission and the WAL are a large share of wall time.
	{
		name:   "intake-abilene",
		policy: controller.PolicyMaxThroughput, topology: abilene,
		conns: 2, batched: false,
		jobsPerPeriod: 24, minWin: 2, maxWin: 3, minRate: 0.25, maxRate: 1,
		warmup: 60, countPeriods: 100,
	},
	// RET with batched arrivals: Algorithm 2 (ceiling and b=0 probes,
	// bisection when b=0 is infeasible, δ-rounds, LPDAR) runs cold every
	// epoch and dominates wall time. The load is light enough that epoch
	// times stay steady, so a full bisection runs in a minority of epochs.
	{
		name:   "ret-abilene",
		policy: controller.PolicyRET, topology: abilene,
		conns: 1, batched: true,
		jobsPerPeriod: 4, minWin: 3, maxWin: 3, minRate: 2, maxRate: 4.5,
		warmup: 150, countPeriods: 200,
	},
	// The 400-node graph makes paths, instance build and decomposition cost
	// something and the LPs LU-heavy; seeded link failures and repairs add
	// mid-period replans and cache invalidation.
	{
		name:   "scale400-faults",
		policy: controller.PolicyMaxThroughput, topology: scale400,
		conns: 1, batched: true,
		jobsPerPeriod: 10, minWin: 3, maxWin: 8, minRate: 0.5, maxRate: 2,
		linkEvery: 3, maxDown: 2,
		warmup: 40, countPeriods: 60,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobRequest is the POST /v1/jobs body, with the ID and arrival stamp
// always explicit so planning never depends on intake order.
type jobRequest struct {
	ID      int     `json:"id"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Size    float64 `json:"size"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Arrival float64 `json:"arrival"`
}

// linkEvent is one seeded link transition, stamped mid-period.
type linkEvent struct {
	Edge int
	Up   bool
	Time float64
}

// periodInput is what the client sends during one period, before the
// tick that ends it.
type periodInput struct {
	jobs []jobRequest
	link *linkEvent
}

// stream generates a workload's inputs period by period. The same
// (workload, seed, graph) always yields the same sequence.
//
// Draws are stratified so that every seed offers the same load: windows
// and rates come from shuffled decks of evenly spaced strata; on small
// graphs every ordered node pair is used once per shuffled cycle, and on
// large ones every node is used once per cycle as a source and once as a
// destination. The seed decides the order and the jitter inside each
// stratum; over a run, the mix of windows, rates and endpoints is the
// same for every seed.
type stream struct {
	w      workload
	rng    *rand.Rand
	nodes  int
	edges  int
	pairs  [][2]int // all ordered pairs, on graphs small enough to cycle
	decks  map[string][]float64
	nextID int
	down   []int // edges currently down, oldest first
	period int
}

// pairCycleMaxNodes bounds the graphs whose ordered pairs are cycled
// through; larger graphs cycle through sources and destinations
// separately.
const pairCycleMaxNodes = 32

// strata is the number of strata per deck of window or rate draws.
const strata = 16

func newStream(w workload, seed int64, g *netgraph.Graph) *stream {
	s := &stream{
		w: w, rng: rand.New(rand.NewSource(seed)),
		nodes: g.NumNodes(), edges: g.NumEdges(),
		decks: make(map[string][]float64), nextID: 1,
	}
	if s.nodes <= pairCycleMaxNodes {
		for a := 0; a < s.nodes; a++ {
			for b := 0; b < s.nodes; b++ {
				if a != b {
					s.pairs = append(s.pairs, [2]int{a, b})
				}
			}
		}
	}
	return s
}

// draw returns the next value in [0, 1) from the named deck, refilling it
// with one jittered value per stratum, shuffled, when it runs out.
func (s *stream) draw(deck string, n int) float64 {
	d := s.decks[deck]
	if len(d) == 0 {
		d = make([]float64, n)
		for i := range d {
			d[i] = (float64(i) + s.rng.Float64()) / float64(n)
		}
		s.rng.Shuffle(n, func(a, b int) { d[a], d[b] = d[b], d[a] })
	}
	v := d[len(d)-1]
	s.decks[deck] = d[:len(d)-1]
	return v
}

func (s *stream) pair() (src, dst int) {
	if s.pairs != nil {
		p := s.pairs[int(s.draw("pair", len(s.pairs))*float64(len(s.pairs)))]
		return p[0], p[1]
	}
	n := float64(s.nodes)
	src = int(s.draw("src", s.nodes) * n)
	dst = int(s.draw("dst", s.nodes) * n)
	if dst == src {
		dst = (dst + 1 + s.rng.Intn(s.nodes-1)) % s.nodes
	}
	return src, dst
}

// next returns the inputs of the next period. Period p's jobs open at the
// scheduling instant p·τ, which is the controller clock before tick p+1.
func (s *stream) next() periodInput {
	p := s.period
	s.period++
	now := float64(p) * tau
	var in periodInput
	if s.w.linkEvery > 0 && p > 0 && p%s.w.linkEvery == 0 {
		// Mid-way through the period committed by the previous tick, so
		// the controller settles and replans the rest of it.
		ev := &linkEvent{Time: now - tau/2}
		if len(s.down) >= s.w.maxDown {
			ev.Edge, ev.Up = s.down[0], true
			s.down = s.down[1:]
		} else {
			ev.Edge = s.pickUpEdge()
			s.down = append(s.down, ev.Edge)
		}
		in.link = ev
	}
	in.jobs = make([]jobRequest, s.w.jobsPerPeriod)
	wins := s.w.maxWin - s.w.minWin + 1
	for i := range in.jobs {
		src, dst := s.pair()
		win := s.w.minWin + int(s.draw("window", wins*strata)*float64(wins))
		rate := s.w.minRate + s.draw("rate", strata)*(s.w.maxRate-s.w.minRate)
		in.jobs[i] = jobRequest{
			ID: s.nextID, Src: src, Dst: dst, Size: float64(win) * sliceLen * rate,
			Start: now, End: now + float64(win)*sliceLen, Arrival: now,
		}
		s.nextID++
	}
	return in
}

func (s *stream) pickUpEdge() int {
	for {
		e := s.rng.Intn(s.edges)
		isDown := false
		for _, d := range s.down {
			isDown = isDown || d == e
		}
		if !isDown {
			return e
		}
	}
}
