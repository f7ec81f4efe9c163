// Command natix-bench regenerates the evaluation section of "Efficient
// Storage of XML Data" (Kanne & Moerkotte): Figures 9–14, plus ablation
// sweeps of the configuration parameters.
//
// Usage:
//
//	natix-bench                           # all figures, paper scale
//	natix-bench -plays 8 -buffer 442368   # reduced scale, scaled buffer
//	natix-bench -experiment fig11         # print one figure
//	natix-bench -experiment ablations     # parameter sweeps
//	natix-bench -experiment import        # bulk vs incremental import
//	natix-bench -experiment wal           # durability cost: WAL off/on/NoSync
//	natix-bench -flat                     # add the flat-stream series
//	natix-bench -csv results.csv          # raw cells for plotting
//	natix-bench -json BENCH_import.json   # machine-readable import cells
//
// The paper loads ≈8 MB of documents against a 2 MB buffer. When
// scaling the corpus down with -plays, scale -buffer proportionally to
// preserve the data:buffer ratio that drives the figures' shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"natix/internal/benchkit"
	"natix/internal/corpus"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig9..fig14, all, or ablations")
		plays      = flag.Int("plays", 37, "number of plays in the corpus (paper: 37)")
		pages      = flag.String("pages", "", "comma-separated page sizes (default 2048..32768)")
		buffer     = flag.Int("buffer", 2<<20, "buffer pool bytes (paper: 2MB)")
		flat       = flag.Bool("flat", false, "include the flat-stream extension series")
		csvPath    = flag.String("csv", "", "write raw cells to this CSV file")
		jsonPath   = flag.String("json", "", "write import-experiment cells to this JSON file")
		workers    = flag.String("workers", "", "comma-separated worker counts for the import scaling sweep (e.g. 1,2,4,8)")
		baselineMS = flag.Float64("baseline-ms", 0, "reference serial bulk wall-ms the scaling curve is computed against (0: this run's serial cell)")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	spec := corpus.DefaultSpec()
	spec.Plays = *plays

	if *experiment == "import" {
		var workerList []int
		if *workers != "" {
			for _, w := range strings.Split(*workers, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(w))
				if err != nil || n < 1 {
					fatalf("bad -workers entry %q", w)
				}
				workerList = append(workerList, n)
			}
		}
		runImport(spec, *buffer, *jsonPath, workerList, *baselineMS, *quiet)
		return
	}
	if *experiment == "wal" {
		runWAL(spec, *buffer, *jsonPath, *quiet)
		return
	}

	var pageSizes []int
	if *pages != "" {
		for _, p := range strings.Split(*pages, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				fatalf("bad -pages entry %q: %v", p, err)
			}
			pageSizes = append(pageSizes, n)
		}
	}

	if *experiment == "ablations" {
		runAblations(spec, *buffer)
		return
	}

	opts := benchkit.SuiteOptions{
		Spec:        spec,
		PageSizes:   pageSizes,
		BufferBytes: *buffer,
		IncludeFlat: *flat,
	}
	if !*quiet {
		opts.Progress = os.Stderr
		st := corpus.Measure(corpus.Generate(spec))
		fmt.Fprintf(os.Stderr, "corpus: %d plays, %d nodes, %.2f MB XML; buffer %d KB\n",
			st.Documents, st.Nodes, float64(st.TextBytes)/(1<<20), *buffer>>10)
	}
	suite, err := benchkit.RunSuite(opts)
	if err != nil {
		fatalf("suite: %v", err)
	}
	switch *experiment {
	case "all":
		suite.PrintAll(os.Stdout)
	default:
		found := false
		for _, fig := range benchkit.Figures {
			if fig.ID == *experiment {
				suite.PrintFigure(os.Stdout, fig)
				found = true
			}
		}
		if !found {
			fatalf("unknown experiment %q (want fig9..fig14, all, ablations)", *experiment)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatalf("create %s: %v", *csvPath, err)
		}
		defer f.Close()
		if err := suite.WriteCSV(f); err != nil {
			fatalf("write csv: %v", err)
		}
		fmt.Fprintf(os.Stderr, "raw cells written to %s\n", *csvPath)
	}
}

// runImport measures document loading through the streaming bulk path
// and the incremental per-node path on the same generated plays,
// printing a table and optionally writing the cells as JSON — the
// BENCH_import.json baseline of the perf trajectory.
func runImport(spec corpus.Spec, buffer int, jsonPath string, workers []int, baselineMS float64, quiet bool) {
	cells, err := benchkit.RunImportExperiment(spec, buffer, 8192, workers)
	if err != nil {
		fatalf("import experiment: %v", err)
	}
	benchkit.PrintImportCells(os.Stdout, cells)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fatalf("create %s: %v", jsonPath, err)
		}
		defer f.Close()
		if err := benchkit.WriteImportJSON(f, cells, baselineMS); err != nil {
			fatalf("write json: %v", err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "import cells written to %s\n", jsonPath)
		}
	}
}

// runWAL measures the durability cost: the same file-backed import +
// query workload with the write-ahead log off, on, and on with NoSync
// — the BENCH_wal.json baseline.
func runWAL(spec corpus.Spec, buffer int, jsonPath string, quiet bool) {
	dir, err := os.MkdirTemp("", "natix-wal-bench")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	cells, err := benchkit.RunWALExperiment(spec, buffer, 8192, dir)
	if err != nil {
		fatalf("wal experiment: %v", err)
	}
	benchkit.PrintWALCells(os.Stdout, cells)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fatalf("create %s: %v", jsonPath, err)
		}
		defer f.Close()
		if err := benchkit.WriteWALJSON(f, cells); err != nil {
			fatalf("write json: %v", err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wal cells written to %s\n", jsonPath)
		}
	}
}

func runAblations(spec corpus.Spec, buffer int) {
	const page = 8192
	if _, err := benchkit.SplitTargetAblation(spec, page, buffer, os.Stdout); err != nil {
		fatalf("split-target ablation: %v", err)
	}
	if _, err := benchkit.SplitToleranceAblation(spec, page, buffer, os.Stdout); err != nil {
		fatalf("split-tolerance ablation: %v", err)
	}
	if _, err := benchkit.BufferAblation(spec, page, os.Stdout); err != nil {
		fatalf("buffer ablation: %v", err)
	}
	if _, err := benchkit.CacheAblation(spec, page, buffer, os.Stdout); err != nil {
		fatalf("cache ablation: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "natix-bench: "+format+"\n", args...)
	os.Exit(1)
}
