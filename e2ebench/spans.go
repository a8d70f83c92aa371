package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one finished span read back from the tracer's JSONL stream.
// Times are Unix nanoseconds; start is derived from the end stamp and
// the recorded duration.
type span struct {
	ID, Trace, Parent int64
	Name              string
	Start, End        int64

	children []*span
	self     float64 // attributed self time in nanoseconds
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanRecord is the subset of the tracer's wire form the analysis reads.
type spanRecord struct {
	TS     string   `json:"ts"`
	Kind   string   `json:"kind"`
	ID     int64    `json:"id"`
	Trace  int64    `json:"trace"`
	Parent int64    `json:"parent"`
	Name   string   `json:"name"`
	DurUS  *float64 `json:"dur_us"`
}

// parseSpans reads the span records of a JSONL trace, skipping events.
func parseSpans(r io.Reader) ([]*span, error) {
	var out []*span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace record: %w", err)
		}
		if rec.Kind != "span" || rec.DurUS == nil {
			continue
		}
		end, err := time.Parse(time.RFC3339Nano, rec.TS)
		if err != nil {
			return nil, fmt.Errorf("trace record %d: %w", rec.ID, err)
		}
		e := end.UnixNano()
		out = append(out, &span{
			ID: rec.ID, Trace: rec.Trace, Parent: rec.Parent, Name: rec.Name,
			Start: e - int64(*rec.DurUS*1e3), End: e,
		})
	}
	return out, sc.Err()
}

// isRoot reports whether a span is one of the driver's own root spans.
func isRoot(s *span) bool { return strings.HasPrefix(s.Name, "bench.") }

// buildForest links spans into trees under the driver's root spans and
// returns the roots with the count of spans it could not place. A span
// with a parent ID hangs under that parent. A span without one — the
// controller opens each epoch span in a fresh trace scope whose ID is the
// epoch index — hangs under the smallest root span of the same trace
// whose interval contains it.
func buildForest(spans []*span) (roots []*span, orphans int) {
	byID := make(map[int64]*span, len(spans))
	byTrace := make(map[int64][]*span)
	for _, s := range spans {
		byID[s.ID] = s
		if isRoot(s) {
			roots = append(roots, s)
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	for _, s := range spans {
		if isRoot(s) {
			continue
		}
		var parent *span
		if s.Parent != 0 {
			parent = byID[s.Parent]
		} else {
			for _, r := range byTrace[s.Trace] {
				if r.Start <= s.Start && s.End <= r.End && (parent == nil || r.dur() < parent.dur()) {
					parent = r
				}
			}
		}
		if parent == nil {
			orphans++
			continue
		}
		parent.children = append(parent.children, s)
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].Start < roots[b].Start })
	return roots, orphans
}

// attributeSelf splits a root span's wall time among the spans of its
// tree. Each instant goes to the innermost spans open at that instant, so
// a span's self time is its duration minus the part its children cover.
// Where sibling spans overlap (decomposed components solved on parallel
// workers), the shared instant is divided equally among them, so the self
// times of a tree always add up to its root's duration.
func attributeSelf(root *span) {
	var pts []int64
	var walk func(s *span)
	walk = func(s *span) {
		pts = append(pts, clamp(s.Start, root), clamp(s.End, root))
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(root)
	sort.Slice(pts, func(a, b int) bool { return pts[a] < pts[b] })
	var leaves []*span
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if b <= a {
			continue
		}
		leaves = innermost(root, a, b, leaves[:0])
		share := float64(b-a) / float64(len(leaves))
		for _, s := range leaves {
			s.self += share
		}
	}
}

func clamp(t int64, root *span) int64 {
	return min(max(t, root.Start), root.End)
}

// innermost appends the spans of s's subtree that cover [a, b) while none
// of their own children does. Every span boundary is a cut point, so a
// span either covers the whole interval or none of it.
func innermost(s *span, a, b int64, out []*span) []*span {
	n := len(out)
	for _, c := range s.children {
		if c.Start <= a && c.End >= b {
			out = innermost(c, a, b, out)
		}
	}
	if len(out) == n {
		out = append(out, s)
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTable attributes self time under every root and totals it per span
// name, in descending order of self time.
func selfTable(roots []*span) []spanStat {
	agg := make(map[string]*spanStat)
	var walk func(s *span)
	walk = func(s *span) {
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.dur()) / 1e6
		st.SelfMS += s.self / 1e6
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range roots {
		attributeSelf(r)
		walk(r)
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// spanLayer names the module a span's self time belongs to.
func spanLayer(name string) string {
	switch name {
	case "bench.submit":
		return "server+admission+store (client-observed POST)"
	case "bench.tick":
		return "server (tick: intake drain, WAL epoch entry, settlement)"
	case "bench.link_event":
		return "server+controller (link event outside lp)"
	case "bench.verify":
		return "benchmark check"
	case "controller.epoch":
		return "controller (instance, paths, LPDAR, settlement)"
	case "schedule.ret", "schedule.ret_component":
		return "schedule (RET search outside lp)"
	case "lp.solve":
		return "lp"
	}
	return "other"
}
