// Telemetry overhead: the same indexed query and bulk import measured
// with instrumentation off and fully on (tracing + slow-op log). The
// benchmarks expose the comparison; TestTelemetryOverheadGuard enforces
// it — metrics are always-on by design, so the only acceptable cost of
// the opt-in layers is noise.
package natix

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// telemetryVariants are the two ends of the instrumentation spectrum:
// metrics only (always on) vs every opt-in layer live. The slow-op
// threshold is set high so the comparison prices the bookkeeping, not
// ring traffic.
func telemetryVariants() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"off", Options{PathIndex: true}},
		{"tracing", Options{PathIndex: true, Tracing: true, SlowOpThreshold: time.Minute}},
	}
}

// benchPlayXML returns one generated play (~0.2 MB), the benchmark
// document unit.
func benchPlayXML() string {
	return xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0))
}

// BenchmarkQueryIndexed measures an indexed path query with telemetry
// off vs fully on.
func BenchmarkQueryIndexed(b *testing.B) {
	xml := benchPlayXML()
	for _, v := range telemetryVariants() {
		b.Run(v.name, func(b *testing.B) {
			db, err := Open(v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.ImportXML("play", strings.NewReader(xml)); err != nil {
				b.Fatal(err)
			}
			q, err := db.Prepare("//SPEECH/LINE")
			if err != nil {
				b.Fatal(err)
			}
			ctx := b.Context()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(ctx, "play"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImportTelemetry measures bulk import with telemetry off vs
// fully on (BenchmarkImport covers the bulk-vs-incremental axis; this
// one isolates the instrumentation axis).
func BenchmarkImportTelemetry(b *testing.B) {
	xml := benchPlayXML()
	for _, v := range telemetryVariants() {
		b.Run(v.name, func(b *testing.B) {
			db, err := Open(v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.SetBytes(int64(len(xml)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("doc-%d", i)
				if err := db.ImportXML(name, strings.NewReader(xml)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Delete(name); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// median returns the middle value of ds (the upper one for an even
// count), leaving ds unchanged.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// timeBatch runs fn iters times and returns the elapsed time. It
// collects garbage first, so the batch pays only for its own.
func timeBatch(iters int, fn func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// TestTelemetryOverheadGuard fails when the fully-instrumented query or
// import path is materially slower than the uninstrumented one. In
// every round the off and on batches of one operation run back to
// back, so the two see the same machine load; which side goes first alternates by
// round, and every batch starts from a fresh collection, so neither
// side pays for the other's garbage. Each round compares its on batch
// against its off batch, and the guard fails when the median round is
// over the bound: one lucky or unlucky batch on a busy machine cannot
// decide the verdict. The bound is 5% plus an absolute slack absorbing
// timer and scheduler noise at this batch size; the guard catches
// regressions in kind (an allocation or lock on the hot path), not
// single-digit drift.
func TestTelemetryOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard: skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing guard: race instrumentation distorts the comparison")
	}
	xml := benchPlayXML()
	const (
		rounds     = 41 // odd, so the median is one round
		queryIters = 300
		imports    = 6
		headroom   = 1.05
		slack      = 4 * time.Millisecond
	)

	variants := telemetryVariants()
	type side struct {
		query func() error
		imp   func() error
		times [2][]time.Duration // per round: query, import
	}
	sides := make([]*side, len(variants))
	for i, v := range variants {
		db, err := Open(v.opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ImportXML("play", strings.NewReader(xml)); err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare("//SPEECH/LINE")
		if err != nil {
			t.Fatal(err)
		}
		ctx := t.Context()
		seq := 0
		sides[i] = &side{
			query: func() error {
				_, err := q.Count(ctx, "play")
				return err
			},
			imp: func() error {
				seq++
				name := fmt.Sprintf("doc-%d", seq)
				if err := db.ImportXML(name, strings.NewReader(xml)); err != nil {
					return err
				}
				return db.Delete(name)
			},
		}
	}

	// Round 0 is the warmup (caches, allocator); its times are dropped.
	for r := 0; r <= rounds; r++ {
		for op := range 2 {
			for k := range sides {
				s := sides[(k+r)%len(sides)]
				fn, iters := s.query, queryIters
				if op == 1 {
					fn, iters = s.imp, imports
				}
				d, err := timeBatch(iters, fn)
				if err != nil {
					t.Fatal(err)
				}
				if r > 0 {
					s.times[op] = append(s.times[op], d)
				}
			}
		}
	}

	off, on := sides[0].times, sides[1].times
	for i, op := range []string{"query", "import"} {
		// excess[r] is how far round r's on batch is over the limit set
		// by the same round's off batch.
		excess := make([]time.Duration, rounds)
		for r := range excess {
			limit := time.Duration(float64(off[i][r])*headroom) + slack
			excess[r] = on[i][r] - limit
		}
		slices.Sort(excess)
		med := excess[rounds/2]
		t.Logf("%s: median off %v, median on %v, median excess over limit %v",
			op, median(off[i]), median(on[i]), med)
		if med > 0 {
			t.Errorf("telemetry overhead on %s: median round is %v over the limit (5%% + %v); off %v, on %v",
				op, med, slack, off[i], on[i])
		}
	}
}
