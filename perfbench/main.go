// Command perfbench is the repository benchmark: one closed-loop
// program over the public natix API that times the ingest, browse and
// edit workloads in wall-clock time, checks every answer, and prints
// every metric by name and unit. Build and run it from the repository
// root with
//
//	python3 perfbench/run.py --workload browse --seed 1999 --seconds 30 --trace 0
//
// Scratch stores live under .perfbench/ in the working directory and
// are removed when the run ends. --trace 0 prints the end-to-end
// metrics; --trace 1 runs the standalone layer probes and the workload
// untraced then traced, prints the per-layer metrics and writes the
// span tree to .perfbench/spans-<workload>.jsonl. The last line of
// standard output is one JSON object: correct, attempted, failed,
// metrics. README.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"natix/internal/xmlkit"
)

// outDir holds scratch stores and span files, relative to the working
// directory.
const outDir = ".perfbench"

// bench is one run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // the run's scratch directory
	tempFS   string
	t0       time.Time

	c      *corpusData
	trees  []*xmlkit.Node // kept for the serializer probe of a trace run
	run    runState
	engine engineLog
	segs   []*segment
	spans  []span
	setup  []time.Duration
	space  float64
	heapMB float64
	probes map[string]metric
	// scratchTurn picks the next corpus document a scratch cycle
	// imports, so the cycles walk the whole corpus across the run.
	scratchTurn int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "ingest, browse or edit")
		seed     = flag.Int64("seed", 1999, "corpus and operation seed (1999: the paper-scale default corpus)")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run with per-layer metrics")
	)
	flag.Parse()
	runners := map[string]func(*bench) error{
		"ingest": (*bench).runIngest,
		"browse": (*bench).runBrowse,
		"edit":   (*bench).runEdit,
	}
	runner, ok := runners[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want ingest, browse or edit)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, t0: time.Now()}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	b.dir = dir
	b.tempFS = fsType(dir)
	defer os.RemoveAll(dir)

	if b.c, b.trees, err = buildCorpus(b.seed, b.trace); err != nil {
		return err
	}
	if err := runner(b); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	// Wait for the freed blocks to be written back and discarded here,
	// not in the next run's commits.
	syscall.Sync()
	_, statErr := os.Stat(dir)
	b.run.check(os.IsNotExist(statErr), "scratch directory %s still present after the run", dir)
	return b.report()
}

// report prints the human-readable report, then the result line.
func (b *bench) report() error {
	all := b.endToEnd()
	names := endToEndNames
	if b.trace {
		all = b.perLayer()
		names = perLayerNames
		path := filepath.Join(outDir, "spans-"+b.workload+".jsonl")
		if err := writeSpans(path, b.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(b.spans), path)
	}
	metrics := map[string]metric{}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		metrics[n] = m
	}
	// Per segment and call name: sample count, p50 and p90 in µs.
	calls := map[string]map[string][3]float64{}
	for _, s := range b.segs {
		c := map[string][3]float64{}
		for n, ds := range s.byName {
			c[n] = [3]float64{float64(len(ds)), us(quantile(ds, 0.5)), us(quantile(ds, 0.9))}
		}
		calls[s.name] = c
	}
	rep := map[string]any{
		"provenance":          b.provenance(),
		"calls_n_p50us_p90us": calls,
		"setup_builds_s":      durationsS(b.setup),
		"ops_failed_frac":     ratio(float64(b.run.failed), float64(b.run.attempted)),
		"failures":            b.run.failures,
		"metrics":             all,
	}
	if b.trace {
		rep["self_time"] = b.selfTable()
	}
	pretty, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	line, err := json.Marshal(map[string]any{
		"correct":   b.run.failed == 0,
		"attempted": b.run.attempted,
		"failed":    b.run.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
