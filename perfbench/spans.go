package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records benchmark-side spans around the calls the benchmark makes
// into the program. Spans stay in memory until dump. A nil *tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Times are nanoseconds since the tracer started;
// Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span under parent and returns its id (-1 when off).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1, Run: t.run})
	t.mu.Unlock()
	return id
}

// startAt opens a span that began at a given wall time: an open-loop
// request is timed from when it was due, not from when it was sent.
func (t *tracer) startAt(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	id := t.start(name, parent)
	t.mu.Lock()
	t.spans[id].Start = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfStat is the aggregate of every span with one name.
type selfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total duration and the self time:
// each span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() []selfStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	agg := map[string]*selfStat{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func (t *tracer) printSelf(w io.Writer) {
	fmt.Fprintf(w, "spans  %-22s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "spans  %-22s %8d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
}

// dump writes the spans, their self-time report, the ladder and the
// per-layer metrics to path as one JSON document.
func (t *tracer) dump(path, stamp string, rep *report) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	rep.mu.Lock()
	layers := make(map[string]metricVal, len(rep.layers))
	for k, v := range rep.layers {
		layers[k] = v
	}
	rep.mu.Unlock()
	doc := struct {
		Stamp  string               `json:"stamp"`
		Run    string               `json:"run"`
		Self   []selfStat           `json:"self_times"`
		Ladder []rung               `json:"ladder"`
		Layers map[string]metricVal `json:"per_layer"`
		Spans  []span               `json:"spans"`
	}{stamp, t.run, t.selfTimes(), ladderRungs(rep), layers, spans}
	blob, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// rung is one step of the performance ladder: the cost per example with
// one more layer in the path, and what that layer adds over the step below.
type rung struct {
	Name  string  `json:"name"`
	NS    float64 `json:"ns_per_example"`
	AddNS float64 `json:"adds_ns"`
}

func ladderRungs(rep *report) []rung {
	names := []struct{ label, total, add string }{
		{"bare AWM", "ladder.awm_ns", ""},
		{"sharded, 2 workers", "ladder.sharded_ns", "ladder.sharded_add_ns"},
		{"plus wire codec", "ladder.codec_ns", "ladder.codec_add_ns"},
		{"server over net.Pipe", "ladder.pipe_ns", "ladder.pipe_add_ns"},
		{"server over loopback", "ladder.tcp_ns", "ladder.tcp_add_ns"},
	}
	out := make([]rung, 0, len(names))
	for _, n := range names {
		r := rung{Name: n.label, NS: rep.value(n.total)}
		if n.add != "" {
			r.AddNS = rep.value(n.add)
		}
		out = append(out, r)
	}
	return out
}

func printLadder(w io.Writer, rep *report) {
	for _, r := range ladderRungs(rep) {
		fmt.Fprintf(w, "ladder %-22s %10.1f ns/example  adds %10.1f ns\n", r.Name, r.NS, r.AddNS)
	}
}
