package main

// Metric definitions. End-to-end metrics come from the untraced run;
// per-layer metrics from the traced run. Each figure is taken from the
// first segment that holds the operation class it is normalized by —
// the primary blocks when they have that class, a probe block otherwise.

import (
	"slices"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is n/d, 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// pick returns the first segment that timed calls of class c, skipping
// untraced segments when traced is set; nil if none did.
func (b *bench) pick(traced bool, cs ...opClass) *segment {
	for _, s := range b.segs {
		if traced && !s.traced {
			continue
		}
		if s.ops(cs...) > 0 {
			return s
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run. Each is
// the median of its per-round values (segment.byBlock).
func (b *bench) endToEnd() map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	q := func(p, scale float64) func([]sample) float64 {
		return func(xs []sample) float64 { return float64(quantile(durations(xs), p)) / scale }
	}
	perSecond := func(xs []sample) float64 { return float64(len(xs)) / float64(sum(durations(xs))) * 1e9 }
	put("setup_s", "s", quantile(b.setup, 0.5).Seconds())
	if s := b.pick(false, opImport); s != nil {
		put("ingest_mb_s", "MB/s", s.byBlock(func(xs []sample) float64 {
			var mb float64
			for _, x := range xs {
				mb += x.mb
			}
			return mb / sum(durations(xs)).Seconds()
		}, opImport))
		put("import_ms_p50", "ms", s.byBlock(q(0.5, 1e6), opImport))
		put("import_ms_p90", "ms", s.byBlock(q(0.9, 1e6), opImport))
	}
	if s := b.pick(false, readClasses...); s != nil {
		put("reads_per_s", "1/s", s.byBlock(perSecond, readClasses...))
		put("point_us_p50", "us", s.byBlock(q(0.5, 1e3), opPoint))
		put("point_us_p90", "us", s.byBlock(q(0.9, 1e3), opPoint))
		put("fragment_us_p50", "us", s.byBlock(q(0.5, 1e3), opFragment))
		put("fragment_us_p90", "us", s.byBlock(q(0.9, 1e3), opFragment))
		put("sweep_ms_p50", "ms", s.byBlock(q(0.5, 1e6), opSweep))
	}
	if s := b.pick(false, opEdit); s != nil {
		put("edits_per_s", "1/s", s.byBlock(perSecond, opEdit))
		put("edit_us_p50", "us", s.byBlock(q(0.5, 1e3), opEdit))
		put("edit_us_p90", "us", s.byBlock(q(0.9, 1e3), opEdit))
	}
	put("space_ratio", "ratio", b.space)
	put("live_heap_mb", "MB", b.heapMB)
	return out
}

// traceDurations returns the durations of a segment's engine traces
// whose operation has one of the given prefixes.
func traceDurations(s *segment, prefixes ...string) []time.Duration {
	var out []time.Duration
	for op, trs := range s.engineOps {
		for _, p := range prefixes {
			if strings.HasPrefix(op, p) {
				for _, tr := range trs {
					out = append(out, tr.Duration)
				}
				break
			}
		}
	}
	return out
}

// phaseDurations returns the durations of the named phase in a
// segment's engine traces whose operation has the given prefix.
func phaseDurations(s *segment, opPrefix, phase string) []time.Duration {
	var out []time.Duration
	for op, trs := range s.engineOps {
		if !strings.HasPrefix(op, opPrefix) {
			continue
		}
		for _, tr := range trs {
			for _, ph := range tr.Phases {
				if ph.Op == phase {
					out = append(out, ph.Duration)
				}
			}
		}
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// meanLatency is the mean latency of the given classes.
func meanLatency(s *segment, cs ...opClass) float64 {
	return ratio(float64(s.busy(cs...)), float64(s.ops(cs...)))
}

// perLayer computes the per-layer metrics of a trace run.
func (b *bench) perLayer() map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	var (
		imp   = b.pick(true, opImport)
		read  = b.pick(true, readClasses...)
		edit  = b.pick(true, opEdit)
		write = b.pick(true, opImport, opEdit)
		prim  = b.pick(true, opImport, opPoint, opFragment, opSweep, opEdit)
		ckpt  *segment
	)
	for _, s := range b.segs {
		if s.traced && len(traceDurations(s, "checkpoint")) > 0 {
			ckpt = s
			break
		}
	}
	c := func(s *segment, name string) float64 { return float64(s.counters[name]) }

	if imp != nil {
		mb := imp.importMB()
		put("docstore.import_parse_ms_per_mb", "ms/MB", ratio(c(imp, "docstore.import_parse_ns")/1e6, mb))
		put("docstore.import_pack_ms_per_mb", "ms/MB", ratio(c(imp, "docstore.import_pack_ns")/1e6, mb))
		put("docstore.import_write_ms_per_mb", "ms/MB", ratio(c(imp, "docstore.import_write_ns")/1e6, mb))
		put("pathindex.build_ms_per_mb", "ms/MB", ratio(ms(sum(phaseDurations(imp, "import", "index"))), mb))
		put("core.records_per_mb", "count/MB", ratio(c(imp, "core.records_created"), mb))
		put("buffer.phys_writes_per_mb", "count/MB", ratio(c(imp, "buffer.phys_writes"), mb))
		put("buffer.coalesced_write_runs", "count", c(imp, "buffer.coalesced_write_runs"))
		put("wal.bytes_per_xml_byte", "ratio", ratio(c(imp, "wal.bytes"), mb*1e6))
	}
	if ckpt != nil {
		put("docstore.checkpoint_ms_p50", "ms", ms(quantile(traceDurations(ckpt, "checkpoint"), 0.5)))
	}
	if read != nil {
		reads := float64(read.ops(readClasses...))
		put("docstore.query_indexed_us_p50", "us", us(quantile(traceDurations(read, "query:indexed", "count:indexed", "cursor:indexed"), 0.5)))
		put("docstore.query_scan_us_p50", "us", us(quantile(traceDurations(read, "query:scan", "count:scan", "cursor:scan"), 0.5)))
		idx, scan := c(read, "docstore.queries_indexed"), c(read, "docstore.queries_scan")
		put("docstore.indexed_read_frac", "ratio", ratio(idx, idx+scan))
		put("pathindex.postings_us_p50", "us", us(quantile(phaseDurations(read, "", "postings"), 0.5)))
		put("pathindex.resolve_us_p50", "us", us(quantile(phaseDurations(read, "", "resolve"), 0.5)))
		hits, misses := c(read, "core.cache_hits"), c(read, "core.cache_misses")
		put("core.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
		put("buffer.hit_ratio", "ratio", ratio(c(read, "buffer.hits"), c(read, "buffer.logical_reads")))
		put("buffer.logical_reads_per_read", "count", ratio(c(read, "buffer.logical_reads"), reads))
		put("buffer.phys_reads_per_read", "count", ratio(c(read, "buffer.phys_reads"), reads))
		put("buffer.evictions_per_read", "count", ratio(c(read, "buffer.evictions"), reads))
		put("buffer.prefetch_issued_per_read", "count", ratio(c(read, "buffer.prefetch_issued"), reads))
		put("buffer.prefetch_used_ratio", "ratio", ratio(c(read, "buffer.prefetch_used"), c(read, "buffer.prefetch_issued")))
		put("go.allocs_per_read", "count", ratio(read.rt[3], reads))
	}
	if edit != nil {
		edits := float64(edit.ops(opEdit))
		put("core.splits_per_kedit", "count", ratio(1000*c(edit, "core.splits"), edits))
		put("core.records_rewritten_per_edit", "count", ratio(c(edit, "core.records_rewritten"), edits))
		put("core.parent_patches_per_edit", "count", ratio(c(edit, "core.parent_patches"), edits))
		put("wal.bytes_per_edit", "B", ratio(c(edit, "wal.bytes"), edits))
	}
	if write != nil {
		put("wal.records_per_commit_p50", "count", histQuantile(write.hists["wal.commit_batch_records"], 0.5))
	}
	if prim != nil {
		ops := float64(prim.ops(opImport, opPoint, opFragment, opSweep, opEdit, opDelete, opCheckpoint))
		put("buffer.latch_waits_per_kop", "count", ratio(1000*c(prim, "buffer.latch_waits"), ops))
		put("wal.checkpoints", "count", c(prim, "wal.checkpoints"))
		put("go.gc_cpu_frac", "ratio", ratio(prim.rt[0], prim.rt[1]))
		put("go.alloc_bytes_per_op", "B", ratio(prim.rt[2], ops))
		var facade, selfAPI, selfEngine time.Duration
		self := selfTimes(prim.spans)
		for name, d := range self {
			switch {
			case strings.HasPrefix(name, "api:"):
				selfAPI += d
			case strings.HasPrefix(name, "engine:"):
				selfEngine += d
			}
		}
		for _, sp := range prim.spans {
			if sp.Parent == 0 && strings.HasPrefix(sp.Name, "api:") {
				facade += sp.dur()
			}
		}
		put("trace.facade_self_frac", "ratio", ratio(float64(selfAPI), float64(facade)))
		put("trace.engine_self_frac", "ratio", ratio(float64(selfEngine), float64(facade)))
		// Tracing cost: the traced primary blocks' mean call latency
		// against the untraced one's, over the classes both timed.
		for _, s := range b.segs {
			if s.name == "primary-untraced" {
				cs := []opClass{opImport, opPoint, opFragment, opSweep, opEdit}
				put("trace.overhead_frac", "ratio", ratio(meanLatency(prim, cs...), meanLatency(s, cs...))-1)
			}
		}
	}
	var retries float64
	for _, s := range b.segs {
		if s.traced {
			retries += c(s, "buffer.io_retries")
		}
	}
	put("buffer.io_retries", "count", retries)
	for k, v := range b.probes {
		out[k] = v
	}
	return out
}

// perLayerNames lists every per-layer metric in report order.
var perLayerNames = []string{
	"docstore.import_parse_ms_per_mb", "docstore.import_pack_ms_per_mb", "docstore.import_write_ms_per_mb",
	"docstore.checkpoint_ms_p50", "docstore.query_indexed_us_p50", "docstore.query_scan_us_p50",
	"docstore.indexed_read_frac",
	"pathindex.build_ms_per_mb", "pathindex.postings_us_p50", "pathindex.resolve_us_p50",
	"xmlkit.parse_mb_s", "xmlkit.serialize_mb_s",
	"core.splits_per_kedit", "core.records_rewritten_per_edit", "core.parent_patches_per_edit",
	"core.records_per_mb", "core.cache_hit_ratio",
	"buffer.hit_ratio", "buffer.logical_reads_per_read", "buffer.phys_reads_per_read",
	"buffer.evictions_per_read", "buffer.prefetch_issued_per_read", "buffer.prefetch_used_ratio",
	"buffer.latch_waits_per_kop", "buffer.phys_writes_per_mb", "buffer.coalesced_write_runs",
	"buffer.io_retries",
	"pagedev.read_us_p50", "pagedev.write_us_p50",
	"wal.bytes_per_xml_byte", "wal.bytes_per_edit", "wal.fsync_us_p50",
	"wal.fsync_us_p90", "wal.records_per_commit_p50", "wal.checkpoints",
	"go.gc_cpu_frac", "go.alloc_bytes_per_op", "go.allocs_per_read",
	"trace.overhead_frac", "trace.facade_self_frac", "trace.engine_self_frac",
}

// endToEndNames lists every end-to-end metric in report order.
var endToEndNames = []string{
	"setup_s", "ingest_mb_s", "import_ms_p50", "import_ms_p90", "reads_per_s",
	"point_us_p50", "point_us_p90", "fragment_us_p50", "fragment_us_p90", "sweep_ms_p50",
	"edits_per_s", "edit_us_p50", "edit_us_p90", "space_ratio", "live_heap_mb",
}

// selfTable sums span self time by name over every traced segment,
// largest first, for the report.
func (b *bench) selfTable() []selfRow {
	tot := map[string]time.Duration{}
	for _, s := range b.segs {
		if s.traced {
			for k, v := range selfTimes(s.spans) {
				tot[k] += v
			}
		}
	}
	rows := make([]selfRow, 0, len(tot))
	for k, v := range tot {
		rows = append(rows, selfRow{k, ms(v)})
	}
	slices.SortFunc(rows, func(a, b selfRow) int {
		switch {
		case a.SelfMS > b.SelfMS:
			return -1
		case a.SelfMS < b.SelfMS:
			return 1
		}
		return strings.Compare(a.Span, b.Span)
	})
	return rows
}

type selfRow struct {
	Span   string  `json:"span"`
	SelfMS float64 `json:"self_ms"`
}
