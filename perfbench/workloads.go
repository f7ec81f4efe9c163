package main

// The three workloads. Each is a closed loop over the public natix API
// with a stated commit and flush policy; all stores are file-backed
// under the run's scratch directory with the WAL and the path index on
// and every other option at its default unless named here.
//
// Every run prints every end-to-end metric, so each workload also runs
// the operation classes its primary blocks lack, as short probe blocks
// against the same store and configuration: reads and edits for
// ingest, imports and edits for browse, imports for edit. A run is
// `rounds` rounds of one primary block followed by the probe blocks, so
// every class is sampled across the whole run and an end-to-end figure
// is the median of its per-round values: a slow spell of the host that
// covers fewer than half the rounds does not move it. Per-layer figures
// come from the primary blocks wherever they hold the operation class a
// figure is normalized by, and from a probe block otherwise.
//
// No store file is deleted before the run ends: on a filesystem
// mounted with online discard, freeing blocks makes the next fsync wait
// for the discard, which would land in whichever commit came next.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"natix"
)

// warmDocs are the documents ranked fifth to eighth by the read mix's
// Zipf skew, where the edit workload's writer works: read often enough
// that reads of edited (unindexed) documents are a steady share of the
// mix, and rarely enough that the writer's waits on the reader's
// document locks stay in the latency tail instead of setting its p90.
var warmDocs = []int{4, 5, 6, 7}

const (
	// rounds is how many primary-plus-probe rounds a run has.
	rounds = 9
	// setupBuilds is how many times set-up builds the starting store;
	// setup_s is their median.
	setupBuilds = 5
	// editPool is the edit workload's pool: larger than the ≈14 MB
	// corpus store plus what the run's edits add, so reads stay
	// resident.
	editPool = 64 << 20
)

// session is one open store.
type session struct {
	db   *natix.DB
	path string
	g0   int // goroutines before Open
}

// open opens the store at path. Commits log every change but skip the
// per-commit fsync (Options.NoSync): on shared virtual disks the fsync's
// latency swings several-fold for minutes at a time, more than any
// regression bound can absorb; durability comes with the next
// checkpoint. Tracing stores hand every finished engine trace to the
// run's engine log.
func (b *bench) open(path string, pool int, traced bool) (*session, error) {
	g0 := runtime.NumGoroutine()
	opts := natix.Options{Path: path, BufferBytes: pool, WAL: true, NoSync: true, PathIndex: true}
	if traced {
		opts.Tracing = true
		opts.SlowOpThreshold = time.Nanosecond
		opts.SlowOpSink = b.engine.sink
	}
	db, err := natix.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	return &session{db: db, path: path, g0: g0}, nil
}

// close closes the store and checks that every goroutine it started has
// ended: a leaked goroutine counts as a failed operation.
func (b *bench) close(s *session) error {
	err := s.db.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > s.g0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	g := runtime.NumGoroutine()
	b.run.check(g <= s.g0, "%s: %d goroutines after Close, %d before Open", filepath.Base(s.path), g, s.g0)
	if err != nil {
		return fmt.Errorf("close %s: %w", s.path, err)
	}
	return nil
}

// halves lists the tracing setting of each pass over the rounds: a
// trace run makes an untraced pass first, the baseline for
// trace.overhead_frac, and a traced one with the same structure.
func (b *bench) halves() []bool {
	if b.trace {
		return []bool{false, true}
	}
	return []bool{false}
}

// blockTimes splits the run's seconds over the passes and rounds: in
// each round the primary block takes three quarters and the probe
// blocks share the rest.
func (b *bench) blockTimes() (primary, probes time.Duration) {
	round := time.Duration(b.seconds*float64(time.Second)) / time.Duration(len(b.halves())*rounds)
	return round * 3 / 4, round / 4
}

// segment registers a new segment of the run. In a trace run, the
// untraced pass's segments are suffixed "-untraced".
func (b *bench) segment(name string, traced bool) *segment {
	if b.trace && !traced {
		name += "-untraced"
	}
	seg := newSegment(name, traced)
	b.segs = append(b.segs, seg)
	return seg
}

// newClient returns a timing client for one block of seg.
func (b *bench) newClient(id int, seg *segment) *client {
	return &client{id: id, run: &b.run, record: true, traced: seg.traced}
}

// block runs work as one timed block of seg against db.
func (b *bench) block(seg *segment, db *natix.DB, work func(), clients ...*client) error {
	if err := seg.watch(db); err != nil {
		return err
	}
	b.startBlock(seg)
	work()
	b.finishBlock(seg, clients...)
	return seg.unwatch(db)
}

// startBlock drops engine traces of untimed work, then starts seg.
func (b *bench) startBlock(seg *segment) {
	b.engine.take()
	seg.start()
}

// finishBlock folds the clients into seg and, when it is traced,
// attaches the engine traces taken during the block.
func (b *bench) finishBlock(seg *segment, clients ...*client) {
	seg.stop(clients...)
	if !seg.traced {
		return
	}
	var facade []span
	for _, cl := range clients {
		facade = append(facade, cl.spans...)
	}
	tree, byOp := attach(facade, b.engine.take(), b.t0, len(b.spans))
	seg.spans = append(seg.spans, tree...)
	for op, trs := range byOp {
		seg.engineOps[op] = append(seg.engineOps[op], trs...)
	}
	b.spans = append(b.spans, tree...)
}

// measureSpace records the store-file bytes per corpus XML byte of a
// freshly loaded and checkpointed store.
func (b *bench) measureSpace(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.space = float64(st.Size()) / float64(b.c.bytes)
	return nil
}

// ---- ingest ----------------------------------------------------------

// ingestPass imports the corpus document by document into a fresh
// store and checkpoints it. The store is left open.
func (b *bench) ingestPass(path string, cl *client, seg *segment, traced bool) (*session, error) {
	s, err := b.open(path, 0, traced)
	if err != nil {
		return nil, err
	}
	if seg != nil {
		if err := seg.watch(s.db); err != nil {
			return nil, err
		}
	}
	for _, p := range b.c.plays {
		cl.doImport("import", float64(len(p.xml))/1e6, func() error {
			return s.db.ImportXMLContext(context.Background(), p.name, bytes.NewReader(p.xml))
		})
	}
	cl.do(opCheckpoint, "checkpoint", s.db.Flush)
	if err := b.measureSpace(path); err != nil {
		return nil, err
	}
	if seg != nil {
		return s, seg.unwatch(s.db)
	}
	return s, nil
}

func (b *bench) runIngest() error {
	// Edits are fast, so the read probe gets two thirds of the probe time.
	primary, probes := b.blockTimes()
	var last *session
	n := 0
	nextPath := func() string { n++; return filepath.Join(b.dir, fmt.Sprintf("ingest-%d.natix", n)) }
	drop := func() error {
		if last == nil {
			return nil
		}
		err := b.close(last)
		last = nil
		return err
	}
	// passes runs whole passes into seg until d has passed, at least one.
	passes := func(seg *segment, d time.Duration) error {
		cl := b.newClient(0, seg)
		b.startBlock(seg)
		deadline := time.Now().Add(d)
		for first := true; first || time.Now().Before(deadline); first = false {
			if err := drop(); err != nil {
				return err
			}
			s, err := b.ingestPass(nextPath(), cl, seg, seg.traced)
			if err != nil {
				return err
			}
			last = s
		}
		b.finishBlock(seg, cl)
		return nil
	}

	// Set-up: full passes, each a discarded warm-up; the first pass of
	// a process is markedly slower than the later ones.
	warm := &client{run: &b.run}
	for i := 0; i < setupBuilds; i++ {
		t := time.Now()
		s, err := b.ingestPass(nextPath(), warm, nil, false)
		if err != nil {
			return err
		}
		if err := b.close(s); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t))
		if b.trace && i == setupBuilds-1 {
			if err := b.runProbes(s.path); err != nil {
				return err
			}
		}
	}
	for _, traced := range b.halves() {
		prim := b.segment("primary", traced)
		reads := b.segment("probe-reads", traced)
		edits := b.segment("probe-edits", traced)
		for r := 0; r < rounds; r++ {
			if err := passes(prim, primary); err != nil {
				return err
			}
			// Probes on the round's last store, then its answer checks.
			ed, err := newEditor(b.c, b.seed+int64(r), warmDocs)
			if err != nil {
				return err
			}
			// Warm the pool untimed, as browse does, so the read probe
			// times a steady mix rather than the pass's leftovers.
			rd := newReader(b, last.db, nil)
			rd.loop(time.Now().Add(warmup / 2))
			if err := b.probeReads(reads, last, rd, probes*2/3); err != nil {
				return err
			}
			if err := b.probeEdits(edits, last, ed, probes/3); err != nil {
				return err
			}
			for i := 8; i < 13; i++ { // five documents the edits leave alone
				b.checkExport(last.db, i, false)
			}
			b.verifyEdits(last.db, ed)
		}
	}
	b.measureHeap()
	return drop()
}

// ---- browse and edit: shared set-up ----------------------------------

// buildBase batch-imports the corpus into a fresh store and
// checkpoints it, setupBuilds times. It returns one closed build per
// pass over the rounds, so a trace run's untraced and traced passes
// start from identical stores.
func (b *bench) buildBase() ([]string, error) {
	docs := make([]natix.ImportDoc, len(b.c.plays))
	var paths []string
	for i := 0; i < setupBuilds; i++ {
		path := filepath.Join(b.dir, fmt.Sprintf("base-%d.natix", i))
		paths = append(paths, path)
		t := time.Now()
		s, err := b.open(path, 0, false)
		if err != nil {
			return nil, err
		}
		for j, p := range b.c.plays {
			docs[j] = natix.ImportDoc{Name: p.name, R: bytes.NewReader(p.xml)}
		}
		b.run.attempt()
		if err := s.db.ImportXMLBatch(context.Background(), docs); err != nil {
			b.close(s)
			return nil, fmt.Errorf("batch import: %w", err)
		}
		if err := s.db.Flush(); err != nil {
			b.close(s)
			return nil, fmt.Errorf("flush: %w", err)
		}
		if err := b.close(s); err != nil {
			return nil, err
		}
		b.setup = append(b.setup, time.Since(t))
	}
	paths = paths[len(paths)-len(b.halves()):]
	if err := b.measureSpace(paths[0]); err != nil {
		return nil, err
	}
	if b.trace {
		return paths, b.runProbes(paths[0])
	}
	return paths, nil
}

// ---- browse ----------------------------------------------------------

func (b *bench) runBrowse() error {
	// Edits are fast, so the import probe gets two thirds of the probe
	// time.
	primary, probes := b.blockTimes()
	paths, err := b.buildBase()
	if err != nil {
		return err
	}
	for h, traced := range b.halves() {
		// The probe edits go to the four coldest documents, so the
		// edits (which drop a document's path index) leave the read mix
		// on indexed documents; the reader strips notes before
		// comparing exports of the few reads that reach them.
		n := len(b.c.plays)
		ed, err := newEditor(b.c, b.seed, []int{n - 1, n - 2, n - 3, n - 4})
		if err != nil {
			return err
		}
		s, err := b.open(paths[h], 0, traced)
		if err != nil {
			return err
		}
		rd := newReader(b, s.db, ed.hotDocs())
		rd.loop(time.Now().Add(warmup))
		prim := b.segment("primary", traced)
		imports := b.segment("probe-imports", traced)
		edits := b.segment("probe-edits", traced)
		for r := 0; r < rounds; r++ {
			rd.cl = b.newClient(0, prim)
			if err := b.block(prim, s.db, func() { rd.loop(time.Now().Add(primary)) }, rd.cl); err != nil {
				return err
			}
			if err := b.probeImports(imports, s, probes*2/3); err != nil {
				return err
			}
			if err := b.probeEdits(edits, s, ed, probes/3); err != nil {
				return err
			}
		}
		b.verifyEdits(s.db, ed)
		b.measureHeap()
		if err := b.close(s); err != nil {
			return err
		}
	}
	return nil
}

// warmup is the unrecorded lead-in after a store is opened.
const warmup = 500 * time.Millisecond

// ---- edit ------------------------------------------------------------

func (b *bench) runEdit() error {
	primary, probes := b.blockTimes()
	paths, err := b.buildBase()
	if err != nil {
		return err
	}
	for h, traced := range b.halves() {
		ed, err := newEditor(b.c, b.seed, warmDocs)
		if err != nil {
			return err
		}
		hot := ed.hotDocs()
		s, err := b.open(paths[h], editPool, traced)
		if err != nil {
			return err
		}
		if err := ed.prepare(s.db); err != nil {
			return err
		}
		// Load the whole store into the pool, checking every document,
		// then run both clients untimed for a moment.
		for i := range b.c.plays {
			b.checkExport(s.db, i, hot[i])
		}
		rd := newReader(b, s.db, hot)
		b.editAndRead(s.db, ed, &client{run: &b.run}, rd, time.Now().Add(warmup))
		prim := b.segment("primary", traced)
		imports := b.segment("probe-imports", traced)
		for r := 0; r < rounds; r++ {
			writer := b.newClient(0, prim)
			rd.cl = b.newClient(1, prim)
			edit := func() { b.editAndRead(s.db, ed, writer, rd, time.Now().Add(primary)) }
			if err := b.block(prim, s.db, edit, writer, rd.cl); err != nil {
				return err
			}
			if err := b.probeImports(imports, s, probes); err != nil {
				return err
			}
		}
		b.verifyEdits(s.db, ed)
		b.measureHeap()
		if err := b.close(s); err != nil {
			return err
		}
	}
	return nil
}

// editAndRead runs the writer and the reader side by side until the
// deadline and waits for both.
func (b *bench) editAndRead(db *natix.DB, ed *editor, writer *client, rd *reader, until time.Time) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); b.editLoop(db, ed, writer, until) }()
	go func() { defer wg.Done(); rd.loop(until) }()
	wg.Wait()
}

// editLoop runs the editor's edits until the deadline.
func (b *bench) editLoop(db *natix.DB, ed *editor, cl *client, until time.Time) {
	for time.Now().Before(until) {
		e := ed.next()
		h, err := ed.document(db, e.doc)
		if err != nil {
			b.run.fail("document: %v", err)
			return
		}
		if cl.do(opEdit, "edit/"+e.kind, func() error { return e.call(h) }) == nil {
			e.apply()
		}
	}
}

// ---- probe blocks ----------------------------------------------------

// probeReads times the read mix against an open store.
func (b *bench) probeReads(seg *segment, s *session, rd *reader, d time.Duration) error {
	rd.cl = b.newClient(0, seg)
	return b.block(seg, s.db, func() { rd.loop(time.Now().Add(d)) }, rd.cl)
}

// probeEdits times the edit generator against an open store.
func (b *bench) probeEdits(seg *segment, s *session, ed *editor, d time.Duration) error {
	if err := ed.prepare(s.db); err != nil {
		return err
	}
	cl := b.newClient(0, seg)
	return b.block(seg, s.db, func() { b.editLoop(s.db, ed, cl, time.Now().Add(d)) }, cl)
}

// probeImports runs scratch-document cycles until d has passed: import
// one corpus document under a scratch name (documents taken in turn
// across the run), check its export, delete it. The block starts and
// ends with a checkpoint, so the imports never pay for a log the
// primary block filled.
func (b *bench) probeImports(seg *segment, s *session, d time.Duration) error {
	const scratch = "scratch"
	cl := b.newClient(0, seg)
	return b.block(seg, s.db, func() {
		cl.do(opCheckpoint, "checkpoint", s.db.Flush)
		var buf bytes.Buffer
		for until := time.Now().Add(d); time.Now().Before(until); {
			p := b.c.plays[b.scratchTurn%len(b.c.plays)]
			b.scratchTurn++
			if cl.doImport("import", float64(len(p.xml))/1e6, func() error {
				return s.db.ImportXMLContext(context.Background(), scratch, bytes.NewReader(p.xml))
			}) != nil {
				continue
			}
			buf.Reset()
			err := s.db.ExportXML(scratch, &buf)
			b.run.check(err == nil && bytes.Equal(buf.Bytes(), p.xml), "scratch export of %s: err %v, %d vs %d bytes", p.name, err, buf.Len(), len(p.xml))
			cl.do(opDelete, "delete", func() error { return s.db.Delete(scratch) })
		}
		cl.do(opCheckpoint, "checkpoint", s.db.Flush)
	}, cl)
}

// ---- checks ----------------------------------------------------------

// checkExport compares the export of document i with its imported
// text; noted documents may carry NOTE edits, which are stripped first.
func (b *bench) checkExport(db *natix.DB, i int, noted bool) {
	var buf bytes.Buffer
	err := db.ExportXML(b.c.plays[i].name, &buf)
	got := buf.Bytes()
	if noted {
		got = stripNotes(got)
	}
	b.run.check(err == nil && bytes.Equal(got, b.c.plays[i].xml), "export %s: err %v, %d vs %d bytes", b.c.plays[i].name, err, len(got), len(b.c.plays[i].xml))
}

func (b *bench) verifyEdits(db *natix.DB, ed *editor) {
	bad := ed.verify(db)
	for range len(ed.mirror) {
		b.run.attempt()
	}
	for _, m := range bad {
		b.run.fail("%s", m)
	}
}

// measureHeap records the live heap after a forced GC, with the store
// still open.
func (b *bench) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = float64(ms.HeapAlloc) / 1e6
}

// ---- the read mix ----------------------------------------------------

// reader runs the read mix: documents drawn with a Zipf skew, query
// shapes in a fixed rotation so every run has the same class mix.
type reader struct {
	b     *bench
	db    *natix.DB
	cl    *client
	zipf  *rand.Zipf   // document picks: index 0 is the hottest
	noted map[int]bool // documents that may carry NOTE edits
	turn  int
	buf   bytes.Buffer
}

func newReader(b *bench, db *natix.DB, noted map[int]bool) *reader {
	rng := rand.New(rand.NewSource(b.seed*31 + 7))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(b.c.plays)-1))
	return &reader{b: b, db: db, cl: &client{run: &b.run}, zipf: zipf, noted: noted}
}

// readMix is the rotation of read shapes. Within each class one shape
// takes three turns in four: a class median then sits inside one
// shape's distribution instead of in the gap between two.
var readMix = []string{"q3", "q2", "count", "q3", "q2", "count", "q3", "q2", "count", "first", "q1", "export"}

func (r *reader) loop(until time.Time) {
	for time.Now().Before(until) {
		r.read(readMix[r.turn%len(readMix)], int(r.zipf.Uint64()))
		r.turn++
	}
}

func (r *reader) read(shape string, i int) {
	p := &r.b.c.plays[i]
	ctx := context.Background()
	var got []string
	pull := func(q string, opts ...natix.QueryOption) func() error {
		return func() error {
			cur, err := r.db.QueryIter(ctx, p.name, q, opts...)
			if err != nil {
				return err
			}
			for cur.Next() {
				m, err := cur.Match().Markup()
				if err != nil {
					cur.Close()
					return err
				}
				got = append(got, m)
			}
			return cur.Close()
		}
	}
	run := r.b.run.check
	switch shape {
	case "q3":
		// Materialized, because only Query records the index's
		// postings and resolve phases. On documents the edit writer
		// mutates, a materialized match may be invalidated before its
		// Markup is read (see DB), so those are pulled through a cursor.
		call := pull(q3)
		if !r.noted[i] {
			call = func() error {
				ms, err := r.db.Query(p.name, q3)
				for _, m := range ms {
					if err != nil {
						break
					}
					var s string
					s, err = m.Markup()
					got = append(got, s)
				}
				return err
			}
		}
		if r.cl.do(opPoint, "point/q3", call) == nil {
			run(len(got) == 1 && got[0] == p.want.point3, "%s %s: wrong answer", p.name, q3)
		}
	case "first":
		if r.cl.do(opPoint, "point/first", pull(qFirst, natix.WithLimit(1))) == nil {
			run(len(got) == 1 && got[0] == p.want.first, "%s %s limit 1: wrong answer", p.name, qFirst)
		}
	case "q1":
		if r.cl.do(opFragment, "fragment/q1", pull(q1)) == nil {
			run(digestOf(got) == p.want.q1, "%s %s: wrong answer", p.name, q1)
		}
	case "q2":
		if r.cl.do(opFragment, "fragment/q2", pull(q2)) == nil {
			run(digestOf(got) == p.want.q2, "%s %s: wrong answer", p.name, q2)
		}
	case "export":
		r.buf.Reset()
		if r.cl.do(opSweep, "sweep/export", func() error { return r.db.ExportXML(p.name, &r.buf) }) == nil {
			out := r.buf.Bytes()
			if r.noted[i] {
				out = stripNotes(out)
			}
			run(bytes.Equal(out, p.xml), "%s export: %d vs %d bytes", p.name, len(out), len(p.xml))
		}
	case "count":
		var n int
		if r.cl.do(opSweep, "sweep/count", func() (err error) { n, err = r.db.QueryCount(p.name, qSweep); return err }) == nil {
			run(n == p.want.lines, "%s count %s: %d, want %d", p.name, qSweep, n, p.want.lines)
		}
	}
}
