package main

// The traced run. The benchmark records a span around every facade call
// it makes (client.do); the store, opened with Options.Tracing and a
// slow-op sink at a 1 ns threshold, hands every finished engine trace
// to engineLog.sink on the operation's goroutine. After a segment, each
// engine trace becomes a child of the facade span that contains it, and
// each of its phases (import stream/finish/index, indexed-query
// postings/resolve, ...) a child of that, laid end to end from the
// trace's start because the engine records phase durations, not start
// times. Self time is a span's duration minus what its children cover.

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"natix"
)

// span is one timed interval of the trace tree.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Client  int    `json:"client"`
	StartNS int64  `json:"start_ns"` // since the run started
	EndNS   int64  `json:"end_ns"`

	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// engineLog collects finished engine traces.
type engineLog struct {
	mu     sync.Mutex
	traces []natix.Trace
}

func (l *engineLog) sink(op natix.SlowOp) {
	l.mu.Lock()
	l.traces = append(l.traces, op.Trace)
	l.mu.Unlock()
}

func (l *engineLog) take() []natix.Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.traces
	l.traces = nil
	return t
}

// readOp reports whether an engine operation is a read; in the edit
// workload it belongs to the reader client, everything else to the
// writer.
func readOp(op string) bool {
	for _, p := range []string{"query:", "count:", "cursor:", "export"} {
		if strings.HasPrefix(op, p) {
			return true
		}
	}
	return false
}

func readSpan(s span) bool {
	for _, c := range readClasses {
		if strings.HasPrefix(s.Name, "api:"+classNames[c]) {
			return true
		}
	}
	return false
}

// attach turns the segment's facade spans and the engine traces taken
// during it into one span tree, numbering spans from next. It returns
// the tree and, by operation name, the engine traces that ran inside a
// facade span.
func attach(facade []span, traces []natix.Trace, t0 time.Time, next int) ([]span, map[string][]natix.Trace) {
	byOp := map[string][]natix.Trace{}
	slices.SortFunc(facade, func(a, b span) int { return a.start.Compare(b.start) })
	out := make([]span, 0, len(facade)+3*len(traces))
	for _, f := range facade {
		next++
		f.ID = next
		out = append(out, f)
	}
	nf := len(out)
	clients := map[int]bool{}
	for _, f := range facade {
		clients[f.Client] = true
	}
	for _, tr := range traces {
		end := tr.Start.Add(tr.Duration)
		parent := 0
		// A client's facade spans do not overlap, so only the last span
		// each client started before the trace can contain it.
		i, _ := slices.BinarySearchFunc(out[:nf], tr.Start, func(s span, t time.Time) int {
			if s.start.After(t) {
				return 1
			}
			return -1
		})
		seen := map[int]bool{}
		for j := i - 1; j >= 0 && len(seen) < len(clients); j-- {
			f := out[j]
			if seen[f.Client] {
				continue
			}
			seen[f.Client] = true
			if f.end.Before(end) {
				continue
			}
			if parent == 0 || readOp(tr.Op) == readSpan(f) {
				parent = f.ID
			}
		}
		// Only traces inside a timed call count toward the per-layer
		// figures: the rest ran in untimed work such as Close's
		// checkpoint or an answer check.
		if parent != 0 {
			byOp[tr.Op] = append(byOp[tr.Op], tr)
		}
		next++
		eng := span{ID: next, Parent: parent, Name: "engine:" + tr.Op, start: tr.Start, end: end}
		out = append(out, eng)
		at := tr.Start
		for _, ph := range tr.Phases {
			next++
			pend := at.Add(ph.Duration)
			if pend.After(end) {
				pend = end
			}
			out = append(out, span{ID: next, Parent: eng.ID, Name: "phase:" + tr.Op + "/" + ph.Op, start: at, end: pend})
			at = pend
		}
	}
	for i := range out {
		out[i].StartNS = out[i].start.Sub(t0).Nanoseconds()
		out[i].EndNS = out[i].end.Sub(t0).Nanoseconds()
	}
	return out, byOp
}

// selfTimes sums each span name's self time: its duration minus the
// union of its children's intervals.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		ch := kids[s.ID]
		slices.SortFunc(ch, func(a, b span) int { return a.start.Compare(b.start) })
		var covered time.Duration
		cur := s.start
		for _, c := range ch {
			lo, hi := c.start, c.end
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(s.end) {
				hi = s.end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		out[s.Name] += s.dur() - covered
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
