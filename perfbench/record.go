package main

// Timing and counting. Every facade call the benchmark times goes
// through client.do, which records its latency by operation class and,
// in a traced run, one span. A segment is a measured region of a run:
// it sums the per-client records and the DB.Metrics() and Go runtime
// deltas taken around it.

import (
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"natix"
)

// opClass names what a timed facade call does.
type opClass int

const (
	opImport opClass = iota
	opPoint
	opFragment
	opSweep
	opEdit
	opCheckpoint
	opDelete
	numClasses
)

var classNames = [numClasses]string{"import", "point", "fragment", "sweep", "edit", "checkpoint", "delete"}

var readClasses = []opClass{opPoint, opFragment, opSweep}

// client is one closed-loop caller. A client is owned by one goroutine.
type client struct {
	id     int
	run    *runState
	record bool // false during warm-up: calls are checked, not timed
	lat    [numClasses][]sample
	byName map[string][]time.Duration // the same latencies by call name
	spans  []span                     // facade spans, traced segments only
	traced bool
}

// sample is one timed call: how long it took, the MB of XML it carried
// (imports only), and the segment block it was timed in.
type sample struct {
	d     time.Duration
	mb    float64
	block int
}

// do times fn as one call of class c. name labels its span.
func (cl *client) do(c opClass, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	cl.run.attempt()
	if err != nil {
		cl.run.fail("%s: %v", name, err)
	}
	if cl.record {
		cl.lat[c] = append(cl.lat[c], sample{d: d})
		if cl.byName == nil {
			cl.byName = map[string][]time.Duration{}
		}
		cl.byName[name] = append(cl.byName[name], d)
		if cl.traced {
			cl.spans = append(cl.spans, span{Name: "api:" + name, Client: cl.id, start: start, end: start.Add(d)})
		}
	}
	return err
}

// doImport is do for an import carrying mb MB of XML.
func (cl *client) doImport(name string, mb float64, fn func() error) error {
	err := cl.do(opImport, name, fn)
	if err == nil && cl.record {
		cl.lat[opImport][len(cl.lat[opImport])-1].mb = mb
	}
	return err
}

// segment is one measured region of a run.
type segment struct {
	name     string
	traced   bool
	lat      [numClasses][]sample
	byName   map[string][]time.Duration
	counters map[string]int64
	hists    map[string]natix.HistogramSnapshot
	rt       rtSample
	spans    []span
	// engineOps holds a traced segment's engine traces by operation.
	engineOps map[string][]natix.Trace

	blocks int           // blocks started so far
	rt0    rtSample      // runtime counters at the block's start
	base   natix.Metrics // the watched store's metrics at watch
}

func newSegment(name string, traced bool) *segment {
	return &segment{name: name, traced: traced, counters: map[string]int64{}, byName: map[string][]time.Duration{},
		hists: map[string]natix.HistogramSnapshot{}, engineOps: map[string][]natix.Trace{}}
}

// start begins one block and reads the runtime counters.
func (s *segment) start() {
	s.blocks++
	s.rt0 = readRuntime()
}

// stop ends the block and folds its clients' records in.
func (s *segment) stop(clients ...*client) {
	s.rt = s.rt.add(readRuntime().sub(s.rt0))
	for _, cl := range clients {
		for c := range cl.lat {
			for _, x := range cl.lat[c] {
				x.block = s.blocks - 1
				s.lat[c] = append(s.lat[c], x)
			}
		}
		for n, ds := range cl.byName {
			s.byName[n] = append(s.byName[n], ds...)
		}
	}
}

// watch snapshots db's metrics; unwatch adds what moved since. A
// segment watches one store at a time, possibly several in turn
// (ingest opens one per pass).
func (s *segment) watch(db *natix.DB) error {
	m, err := db.Metrics()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	s.base = m
	return nil
}

func (s *segment) unwatch(db *natix.DB) error {
	m, err := db.Metrics()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	prev := s.base
	for k, v := range m.Counters {
		s.counters[k] += v - prev.Counters[k]
	}
	for k, h := range m.Histograms {
		acc := s.hists[k]
		p := prev.Histograms[k]
		acc.Count += h.Count - p.Count
		acc.Sum += h.Sum - p.Sum
		for i := range h.Buckets {
			acc.Buckets[i] += h.Buckets[i] - p.Buckets[i]
		}
		s.hists[k] = acc
	}
	return nil
}

// ops is how many timed calls of the given classes the segment holds.
func (s *segment) ops(cs ...opClass) int {
	n := 0
	for _, c := range cs {
		n += len(s.lat[c])
	}
	return n
}

// busy is the summed latency of the given classes.
func (s *segment) busy(cs ...opClass) time.Duration {
	var t time.Duration
	for _, c := range cs {
		for _, x := range s.lat[c] {
			t += x.d
		}
	}
	return t
}

// importMB is the MB of XML the segment's timed imports carried.
func (s *segment) importMB() float64 {
	var mb float64
	for _, x := range s.lat[opImport] {
		mb += x.mb
	}
	return mb
}

// byBlock computes stat over the samples of the given classes in each
// block of the segment and returns the median across blocks.
func (s *segment) byBlock(stat func([]sample) float64, cs ...opClass) float64 {
	per := make([][]sample, s.blocks)
	for _, c := range cs {
		for _, x := range s.lat[c] {
			per[x.block] = append(per[x.block], x)
		}
	}
	var vals []float64
	for _, xs := range per {
		if len(xs) > 0 {
			vals = append(vals, stat(xs))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	if m := len(vals); m%2 == 0 {
		return (vals[m/2-1] + vals[m/2]) / 2
	}
	return vals[len(vals)/2]
}

// durations extracts the latencies of samples.
func durations(xs []sample) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}

// runState is the run-wide tally of attempted and failed operations.
type runState struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
}

func (r *runState) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation; a wrong answer is a failure too.
func (r *runState) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
		fmt.Fprintln(os.Stderr, "perfbench: failure:", msg)
	}
}

// check counts one verification and fails it when ok is false.
func (r *runState) check(ok bool, format string, args ...any) {
	r.attempt()
	if !ok {
		r.fail(format, args...)
	}
}

// Go runtime counters read around each segment.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

type rtSample [4]float64

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out rtSample
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func (a rtSample) sub(b rtSample) rtSample {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a rtSample) add(b rtSample) rtSample {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// quantile is the q-quantile of ds by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

// histQuantile estimates the q-quantile of a power-of-two histogram
// (bucket b holds values in [2^(b-1), 2^b)), interpolating linearly
// inside the bucket the rank falls in.
func histQuantile(h natix.HistogramSnapshot, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for b, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			if b == 0 {
				return 0
			}
			lo := float64(int64(1) << (b - 1))
			return lo + lo*(rank-seen)/float64(n)
		}
		seen += float64(n)
	}
	return 0
}
