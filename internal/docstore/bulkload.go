package docstore

// The bulk import fast path. ImportXML used to materialize the whole
// document as a DOM and replay it node by node through the paper's tree
// growth procedure — O(n·depth) record navigations, every record
// rewritten once per child placed in it, then a second full traversal
// to build the path index. The bulk path does the whole import in one
// pass: a streaming parse feeds the bottom-up record packer
// (core.BulkBuilder), labels are interned through a dictionary batch
// (one save per import instead of one per new label), and the path
// summary and postings are accumulated while records are emitted
// (pathindex.StreamBuilder), so the stored tree is never read back.
// Each physical record is written exactly once.
//
// The incremental insertion path survives as ImportTreeIncremental: it
// is what post-load mutations use (Document edits, InsertChild), the
// paper's measured insertion workload, and the baseline the import
// benchmarks compare against.

import (
	"context"
	"errors"
	"fmt"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/telemetry"
	"natix/internal/xmlkit"
)

// DefaultBulkFill is the default bulk-load fill factor: records and
// pages are packed to 90% of capacity, leaving slack for later
// incremental updates to grow records in place.
const DefaultBulkFill = 0.9

// SetBulkFill configures the bulk-load fill factor (see
// core.BulkOptions.FillFactor). Zero restores the default.
func (s *Store) SetBulkFill(fill float64) { s.bulkFill = fill }

// bulkLoader drives one bulk import: parse events go to the record
// packer, labels to a dictionary batch, and (when indexing is on) every
// node and emitted record to the path-index stream builder.
type bulkLoader struct {
	s         *Store
	bb        *core.BulkBuilder
	sb        *pathindex.StreamBuilder // nil when indexing is off
	batch     labelBatch
	open      []*noderep.Node // open-element stack
	textLimit int
	nodes     int64 // logical nodes loaded

	// Text-token state: chunks of one character-data token (Cont events
	// from the stream parser) are re-joined so literal boundaries come
	// out exactly as the incremental path's insertText produces them —
	// full textLimit chunks plus a remainder — regardless of how the
	// parser split the token for memory. pend stays under textLimit and
	// is reused across tokens.
	pend    []byte
	runOpen bool

	// Slab arenas: loader-built nodes and literal payloads are carved
	// out of chunked block allocations instead of being allocated one by
	// one — the import's dominant allocation sites. A chunk is dropped
	// (left to the GC) the moment it fills; nothing outlives the import,
	// since emitted records only retain the builder's own proxy nodes.
	nodeSlab []noderep.Node
	textSlab []byte
}

// newNode carves one zeroed node from the node slab.
func (l *bulkLoader) newNode() *noderep.Node {
	if len(l.nodeSlab) == cap(l.nodeSlab) {
		l.nodeSlab = make([]noderep.Node, 0, 1024)
	}
	l.nodeSlab = l.nodeSlab[:len(l.nodeSlab)+1]
	return &l.nodeSlab[len(l.nodeSlab)-1]
}

// slabBytes copies b into the payload slab, capacity-clamped so later
// growth of the returned slice reallocates instead of clobbering a
// neighbor.
func (l *bulkLoader) slabBytes(b []byte) []byte {
	if len(l.textSlab)+len(b) > cap(l.textSlab) {
		c := 64 << 10
		if len(b) > c {
			c = len(b)
		}
		l.textSlab = make([]byte, 0, c)
	}
	base := len(l.textSlab)
	l.textSlab = append(l.textSlab, b...)
	return l.textSlab[base : base+len(b) : base+len(b)]
}

// labelBatch is the slice of the dictionary-batch surface the loader
// uses. Single-document imports hand the loader a *dict.Batch directly;
// the multi-document batch import substitutes a mutex-wrapped batch
// shared by all shards (see pipeline.go).
type labelBatch interface {
	Intern(name string) (dict.LabelID, error)
	Commit() error
}

func (s *Store) newBulkLoader() *bulkLoader {
	return s.newBulkLoaderWith(s.dict.NewBatch())
}

// newBulkLoaderWith builds a loader around an externally owned
// dictionary batch.
func (s *Store) newBulkLoaderWith(batch labelBatch) *bulkLoader {
	l := &bulkLoader{
		s:         s,
		batch:     batch,
		textLimit: s.trees.Records().MaxRecordSize() / 2,
	}
	fill := s.bulkFill
	if fill == 0 {
		fill = DefaultBulkFill
	}
	var onRecord func(records.RID, *noderep.Node) error
	if s.pindex != nil && s.indexOn {
		l.sb = pathindex.NewStreamBuilder()
		onRecord = l.sb.OnRecord
	}
	l.bb = s.trees.NewBulkBuilder(core.BulkOptions{FillFactor: fill, OnRecord: onRecord})
	return l
}

// openElement starts an element, materializing its attributes as
// "@name" aggregates first — the same shape the incremental path
// builds.
func (l *bulkLoader) openElement(name string, attrs []xmlkit.Attr) error {
	if err := l.flushTextRun(); err != nil {
		return err
	}
	if err := l.enterAggregate(name); err != nil {
		return err
	}
	for _, a := range attrs {
		if err := l.enterAggregate(AttrPrefix + a.Name); err != nil {
			return err
		}
		if err := l.literal(a.Value); err != nil {
			return err
		}
		if err := l.closeElement(); err != nil {
			return err
		}
	}
	return nil
}

// enterAggregate opens one facade aggregate (element or attribute).
func (l *bulkLoader) enterAggregate(name string) error {
	label, err := l.batch.Intern(name)
	if err != nil {
		return err
	}
	n := l.newNode()
	n.Kind = noderep.KindAggregate
	n.Label = label
	if l.sb != nil {
		l.sb.Enter(n)
	}
	if err := l.bb.Open(n); err != nil {
		return err
	}
	l.open = append(l.open, n)
	l.nodes++
	return nil
}

// closeElement ends the innermost element. The index exit must precede
// the builder close: closing may emit the element's record, and the
// index needs the element registered by then.
func (l *bulkLoader) closeElement() error {
	if err := l.flushTextRun(); err != nil {
		return err
	}
	if len(l.open) == 0 {
		return errors.New("docstore: bulk close without open element")
	}
	n := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	if l.sb != nil {
		if err := l.sb.Exit(n); err != nil {
			return err
		}
	}
	_, err := l.bb.Close()
	return err
}

// literal adds one text literal (no chunking — attribute values). Only
// called between text runs (openElement flushes first), so borrowing the
// empty pend buffer as scratch is safe; it is left empty again.
func (l *bulkLoader) literal(text string) error {
	l.pend = append(l.pend[:0], text...)
	err := l.literalBytes(l.pend)
	l.pend = l.pend[:0]
	return err
}

// literalBytes adds one text literal from a transient byte slice; the
// payload is copied into the loader's slab.
func (l *bulkLoader) literalBytes(b []byte) error {
	if l.sb != nil {
		l.sb.Literal()
	}
	l.nodes++
	n := l.newNode()
	n.Kind = noderep.KindLiteral
	n.Label = dict.Text
	n.LitType = noderep.LitString
	n.Payload = l.slabBytes(b)
	return l.bb.Leaf(n)
}

// text adds one chunk of character data. cont marks a continuation of
// the token the previous chunk belonged to; a fresh token first seals
// the pending one. Full textLimit chunks are emitted eagerly (memory
// stays bounded), the tail at token end — so a token becomes exactly
// the sibling literals insertText would produce, however the parser
// split it (TextContent and export concatenate them back).
func (l *bulkLoader) text(text string, cont bool) error {
	if !cont {
		if err := l.flushTextRun(); err != nil {
			return err
		}
	}
	l.runOpen = true
	l.pend = append(l.pend, text...)
	for len(l.pend) > l.textLimit {
		if err := l.literalBytes(l.pend[:l.textLimit]); err != nil {
			return err
		}
		l.pend = l.pend[:copy(l.pend, l.pend[l.textLimit:])]
	}
	return nil
}

// flushTextRun seals the pending character-data token, emitting its
// final literal.
func (l *bulkLoader) flushTextRun() error {
	if !l.runOpen {
		return nil
	}
	l.runOpen = false
	err := l.literalBytes(l.pend)
	l.pend = l.pend[:0]
	return err
}

// apply feeds one parse event into the loader — the packer half of the
// import pipeline (see pipeline.go).
func (l *bulkLoader) apply(ev *xmlkit.Event) error {
	switch ev.Kind {
	case xmlkit.EventStart:
		return l.openElement(ev.Name, ev.Attrs)
	case xmlkit.EventEnd:
		return l.closeElement()
	case xmlkit.EventText:
		return l.text(ev.Text, ev.Cont)
	}
	return nil
}

// loadDOM replays an already parsed tree through the loader (ImportTree
// and Convert hold a DOM; ImportXML streams and never builds one).
func (l *bulkLoader) loadDOM(cx context.Context, n *xmlkit.Node) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	if n.IsText() {
		return l.text(n.Text, false) // each DOM text node is one token
	}
	if err := l.openElement(n.Name, n.Attrs); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := l.loadDOM(cx, c); err != nil {
			return err
		}
	}
	return l.closeElement()
}

// releaseScratch drops the loader's import-time ballast (slab tails,
// builder pools, recycled record bodies) once its document is sealed.
// The batch import keeps every shard's loader reachable until the whole
// batch commits; without this, dozens of finished loaders' scratch
// stays live and taxes the GC for the remaining shards. Abort (and so
// rollback) still works on a released loader.
func (l *bulkLoader) releaseScratch() {
	l.bb.ReleaseScratch()
	l.nodeSlab, l.textSlab, l.pend, l.open = nil, nil, nil, nil
}

// abortBulk ends a failed import's loader. It always joins the batch
// writer's flusher first, so no queued page lands after the rollback.
// Without a log it then deletes the records the builder materialized
// (the pre-WAL best-effort path); with a log attached the operation's
// log-driven rollback restores every touched page wholesale instead
// (see wal.go), so the pages are left to it.
func (s *Store) abortBulk(l *bulkLoader) {
	if s.walW != nil {
		l.bb.Stop()
		return
	}
	_ = l.bb.Abort()
}

// importStreamLocked runs a bulk import off a streaming parser —
// pipelined: the parser produces event batches on its own goroutine
// while this goroutine packs them (see pipeline.go). Mutator context.
// sp is the operation's root span (nil when tracing is off); the
// parse-and-pack pipeline and the finish work become phases on it.
func (s *Store) importStreamLocked(cx context.Context, name string, p *xmlkit.StreamParser, sp *telemetry.Span) (DocInfo, error) {
	if _, ok := s.lookup(name); ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	l := s.newBulkLoader()
	if err := s.runImportPipeline(cx, l, p, sp); err != nil {
		s.abortBulk(l)
		return DocInfo{}, err
	}
	return s.finishBulkImport(name, l, sp)
}

// importTreeLocked runs a bulk import over a parsed tree. Mutator
// context. sp as in importStreamLocked.
func (s *Store) importTreeLocked(cx context.Context, name string, root *xmlkit.Node, sp *telemetry.Span) (DocInfo, error) {
	if _, ok := s.lookup(name); ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if root.IsText() {
		return DocInfo{}, errors.New("docstore: document root must be an element")
	}
	l := s.newBulkLoader()
	ch := sp.Child("load")
	if err := l.loadDOM(cx, root); err != nil {
		ch.End()
		s.abortBulk(l)
		return DocInfo{}, err
	}
	ch.Add("nodes", l.nodes)
	ch.End()
	return s.finishBulkImport(name, l, sp)
}

// finishBulkImport seals the build — flush the last page, persist the
// dictionary batch, store the stream-built index — and registers the
// document. Any failure rolls the whole import back.
func (s *Store) finishBulkImport(name string, l *bulkLoader, sp *telemetry.Span) (DocInfo, error) {
	fail := func(err error) (DocInfo, error) {
		s.abortBulk(l)
		return DocInfo{}, err
	}
	ch := sp.Child("finish")
	root, err := l.bb.Finish()
	if err != nil {
		ch.End()
		return fail(err)
	}
	s.mImportWriteNS.Add(l.bb.BatchStats().WriteNS)
	if err := l.batch.Commit(); err != nil {
		ch.End()
		return fail(err)
	}
	ch.End()
	info := &DocInfo{Name: name, Mode: ModeTree, Root: root}
	// Index before registering: a failed build must not leave a
	// registered-but-unindexed document behind a returned error.
	if l.sb != nil {
		ch = sp.Child("index")
		idx, err := l.sb.Finish()
		if err != nil {
			ch.End()
			return fail(err)
		}
		if err := s.pindex.Put(name, idx); err != nil {
			ch.End()
			return fail(err)
		}
		s.builds.Add(1)
		ch.End()
	}
	if err := s.register(info); err != nil {
		if l.sb != nil && s.walW == nil {
			_ = s.pindex.Drop(name) // best-effort rollback (log-driven otherwise)
		}
		return fail(err)
	}
	return *info, nil
}
