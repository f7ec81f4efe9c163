package core

// Bulk loading (the streaming fast path). The paper's tree growth
// procedure (§3.2, figure 5) is an online algorithm: every insert
// re-navigates from the root, and the record absorbing the node is
// rewritten each time. That is the right tool for incremental updates
// and exactly the wrong one for loading a whole document, where the
// final shape is known as soon as each subtree closes.
//
// BulkBuilder assembles a document bottom-up in one pass instead. The
// caller opens and closes elements in document order (the shape of a
// streaming parse); the builder accumulates each open element's
// children, and whenever the pending content of an element outgrows the
// record budget it packs a maximal run of completed children into a
// partition record — grouped under a scaffolding aggregate, single
// subtrees standing alone, single proxies inlined, precisely the record
// forms §3.2.2's special cases produce — and leaves a proxy behind. The
// split matrix (§3.3) is honored at the same decision points as the
// incremental path: PolicyStandalone children are emitted as standalone
// records the moment they close, PolicyCluster children are kept with
// their parent as long as possible and only flushed when even the
// relaxed pass cannot reduce the record otherwise.
//
// Every physical record is encoded and stored exactly once, through a
// records.BatchWriter that packs pages sequentially with one buffer-pool
// pin per page. The only after-the-fact writes are the 8-byte standalone
// parent pointers of partition records, which are unknowable bottom-up;
// they are patched when the record holding the proxy is emitted —
// usually while the child's page is still buffered in the writer, where
// the patch is a memory copy.

import (
	"errors"
	"fmt"

	"natix/internal/noderep"
	"natix/internal/records"
)

// BulkOptions tune a bulk build.
type BulkOptions struct {
	// FillFactor is the fraction of the net page capacity to pack into
	// each record and each page (clamped to [0.25, 1]; 0 means 0.9).
	// Values below 1 leave slack for later incremental updates.
	FillFactor float64

	// OnRecord, when set, is invoked once per emitted record, after its
	// RID is assigned and before the next event is processed. The bulk
	// path uses it to build the path index in the same pass. The
	// callback must not retain or mutate the subtree.
	OnRecord func(rid records.RID, root *noderep.Node) error
}

// ErrBulkState reports misuse of the builder's Open/Close protocol.
var ErrBulkState = errors.New("core: bulk builder protocol violation")

// BulkBuilder builds one document tree bottom-up. Not safe for
// concurrent use; the caller holds the store's writer lock for the
// whole build (it shares the segment allocator).
type BulkBuilder struct {
	s        *Store
	w        *records.BatchWriter
	onRecord func(records.RID, *noderep.Node) error
	budget   int // target record size

	stack []*bulkFrame

	// parentOff maps an emitted record to the byte offset of its
	// standalone parent RID, until the record holding its proxy is
	// emitted and the pointer patched. Bounded by the records whose
	// proxies still sit in open frames.
	parentOff map[records.RID]int

	// free recycles record-body buffers: the batch writer hands a body
	// back (possibly from its flusher goroutine) once its bytes are
	// copied into a page, and emitRecord reuses it for a later record.
	free chan []byte

	// runScratch is flushOnce's reusable run type set; leafScratch is
	// emitRecord's single-node set for standalone literals.
	runScratch  *noderep.TypeSet
	leafScratch *noderep.TypeSet

	// frameFree and tsFree recycle frames and type sets across the many
	// short-lived elements of a build (a frame per open element, a type
	// set per frame and per pending child).
	frameFree []*bulkFrame
	tsFree    []*noderep.TypeSet

	rootRID records.RID
	created int64 // records emitted by this builder
	aborted bool
}

// bulkFrame is one open element: its aggregate node (whose child list
// holds the pending, already-reduced children) plus incremental size
// accounting.
type bulkFrame struct {
	node  *noderep.Node
	sizes []int // content size per pending child
	// kidProxy marks, per pending child, whether its subtree contains a
	// proxy node — i.e. whether a record emitted around it needs the
	// parent-pointer patch walk. Most records (literal and text runs)
	// carry no proxies and skip the walk entirely.
	kidProxy []bool
	// kidTypes holds, per pending child, the type set of its subtree —
	// a closed frame's set, handed over at Close. nil entries (literals,
	// proxies) contribute their single node type. Keeping them lets run
	// packing and post-splice accounting merge small sets instead of
	// re-walking whole subtrees.
	kidTypes []*noderep.TypeSet
	types    *noderep.TypeSet // types of node + all pending subtrees
	content  int              // Σ (EmbeddedHeaderSize + sizes[i])
}

// recordSize returns the record size if the frame were emitted now.
func (f *bulkFrame) recordSize() int {
	return noderep.RecordOverhead(f.types.Len()) + f.content
}

// NewBulkBuilder returns a builder over the store's record manager.
func (s *Store) NewBulkBuilder(opts BulkOptions) *BulkBuilder {
	fill := opts.FillFactor
	if fill == 0 {
		fill = 0.9
	}
	if fill < 0.25 {
		fill = 0.25
	}
	if fill > 1 {
		fill = 1
	}
	budget := int(fill * float64(s.maxRecordSize()))
	if max := s.maxRecordSize() - 64; budget > max {
		budget = max // room for the scaffold type entry and header drift
	}
	b := &BulkBuilder{
		s:           s,
		w:           s.rm.NewBatchWriter(fill),
		onRecord:    opts.OnRecord,
		budget:      budget,
		parentOff:   make(map[records.RID]int),
		free:        make(chan []byte, 64),
		runScratch:  noderep.NewTypeSet(),
		leafScratch: noderep.NewTypeSet(),
	}
	b.w.SetRecycle(func(body []byte) {
		select {
		case b.free <- body:
		default:
		}
	})
	return b
}

// getTS returns an empty type set, reusing a recycled one.
func (b *BulkBuilder) getTS() *noderep.TypeSet {
	if n := len(b.tsFree); n > 0 {
		ts := b.tsFree[n-1]
		b.tsFree = b.tsFree[:n-1]
		ts.Reset()
		return ts
	}
	return noderep.NewTypeSet()
}

// putTS recycles a type set nothing references anymore.
func (b *BulkBuilder) putTS(ts *noderep.TypeSet) {
	if ts != nil {
		b.tsFree = append(b.tsFree, ts)
	}
}

// getFrame returns a fresh frame (child slices emptied, capacity kept).
func (b *BulkBuilder) getFrame(n *noderep.Node, ts *noderep.TypeSet) *bulkFrame {
	if k := len(b.frameFree); k > 0 {
		f := b.frameFree[k-1]
		b.frameFree = b.frameFree[:k-1]
		f.node = n
		f.types = ts
		f.sizes = f.sizes[:0]
		f.kidTypes = f.kidTypes[:0]
		f.kidProxy = f.kidProxy[:0]
		f.content = 0
		return f
	}
	return &bulkFrame{node: n, types: ts}
}

// putFrame recycles a closed frame and its per-child type sets (dead
// once the frame's children are final). f.types is NOT recycled here —
// its ownership moves to the parent frame or to emitRecord's caller.
func (b *BulkBuilder) putFrame(f *bulkFrame) {
	for _, kt := range f.kidTypes {
		b.putTS(kt)
	}
	f.node = nil
	f.types = nil
	b.frameFree = append(b.frameFree, f)
}

// Open begins an element: n must be a childless facade aggregate. Its
// children arrive through subsequent Open/Leaf calls until Close.
func (b *BulkBuilder) Open(n *noderep.Node) error {
	if n == nil || n.Kind != noderep.KindAggregate || n.Scaffold || len(n.Children) != 0 {
		return fmt.Errorf("%w: Open requires an empty facade aggregate", ErrBulkState)
	}
	if !b.rootRID.IsNil() {
		return fmt.Errorf("%w: document already closed", ErrBulkState)
	}
	types := b.getTS()
	types.AddNode(n)
	b.stack = append(b.stack, b.getFrame(n, types))
	return nil
}

// Leaf adds a literal child to the open element. The payload must fit a
// record (callers chunk long text, as the incremental path does).
func (b *BulkBuilder) Leaf(n *noderep.Node) error {
	if n == nil || n.Kind != noderep.KindLiteral {
		return fmt.Errorf("%w: Leaf requires a literal", ErrBulkState)
	}
	if len(b.stack) == 0 {
		return fmt.Errorf("%w: Leaf outside any element", ErrBulkState)
	}
	if len(n.Payload) > b.s.maxRecordSize()-128 {
		return fmt.Errorf("%w: %d-byte literal", ErrNodeTooLarge, len(n.Payload))
	}
	parent := b.stack[len(b.stack)-1]
	if b.s.cfg.Matrix.Get(parent.node.Label, n.Label) == PolicyStandalone {
		b.leafScratch.Reset()
		b.leafScratch.AddNode(n)
		rid, err := b.emitRecord(n, records.NilRID, b.leafScratch, len(n.Payload), false)
		if err != nil {
			return err
		}
		return b.appendChild(parent, noderep.NewProxy(rid), records.RIDSize, nil, false)
	}
	return b.appendChild(parent, n, len(n.Payload), nil, false)
}

// Close ends the innermost open element, attaching its (reduced)
// subtree to the parent frame — or emitting the root record when it is
// the document root. It returns the closed node.
func (b *BulkBuilder) Close() (*noderep.Node, error) {
	if len(b.stack) == 0 {
		return nil, fmt.Errorf("%w: Close without open element", ErrBulkState)
	}
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	if len(b.stack) == 0 {
		rid, err := b.emitRecord(f.node, records.NilRID, f.types, f.content, anyProxy(f.kidProxy))
		if err != nil {
			return nil, err
		}
		b.rootRID = rid
		n := f.node
		b.putTS(f.types)
		b.putFrame(f)
		return n, nil
	}
	parent := b.stack[len(b.stack)-1]
	if b.s.cfg.Matrix.Get(parent.node.Label, f.node.Label) == PolicyStandalone {
		// "x is stored as a standalone node and a proxy is inserted into
		// y" (§3.3).
		rid, err := b.emitRecord(f.node, records.NilRID, f.types, f.content, anyProxy(f.kidProxy))
		if err != nil {
			return nil, err
		}
		n := f.node
		b.putTS(f.types)
		b.putFrame(f)
		if err := b.appendChild(parent, noderep.NewProxy(rid), records.RIDSize, nil, false); err != nil {
			return nil, err
		}
		return n, nil
	}
	n := f.node
	types := f.types
	content := f.content
	proxies := anyProxy(f.kidProxy)
	b.putFrame(f)
	if err := b.appendChild(parent, n, content, types, proxies); err != nil {
		return nil, err
	}
	return n, nil
}

// Finish completes the build: materializes the last page and returns
// the root record RID. All elements must be closed.
func (b *BulkBuilder) Finish() (records.RID, error) {
	if len(b.stack) != 0 {
		return records.NilRID, fmt.Errorf("%w: %d elements still open", ErrBulkState, len(b.stack))
	}
	if b.rootRID.IsNil() {
		return records.NilRID, fmt.Errorf("%w: no document built", ErrBulkState)
	}
	if err := b.w.Flush(); err != nil {
		return records.NilRID, err
	}
	delete(b.parentOff, b.rootRID)
	if len(b.parentOff) != 0 {
		return records.NilRID, fmt.Errorf("core: bulk build left %d unreferenced records", len(b.parentOff))
	}
	return b.rootRID, nil
}

// ReleaseScratch drops the builder's reusable buffers — the recycled
// record bodies, frame and type-set pools. Call it after Finish when
// the builder object must stay reachable for a while (the batch import
// holds every shard's builder until the whole batch commits): the
// scratch is the bulk of a finished builder's footprint, and keeping
// dozens of them live multiplies GC work for the remaining shards.
// Abort still works afterwards.
func (b *BulkBuilder) ReleaseScratch() {
	for {
		select {
		case <-b.free:
			continue
		default:
		}
		break
	}
	b.frameFree, b.tsFree = nil, nil
	b.runScratch, b.leafScratch = nil, nil
}

// Abort rolls the build back: buffered pages are dropped and every
// record already stored is deleted, leaving the segment as it was.
func (b *BulkBuilder) Abort() error {
	if b.aborted {
		return nil
	}
	b.aborted = true
	b.stack = nil
	b.s.stats.recordsDeleted.Add(b.created)
	return b.w.Discard()
}

// Stop ends a failed build without rolling it back: the batch writer's
// flusher goroutine is joined, so no page is written after Stop
// returns. For callers whose rollback is log-driven; Abort is the
// log-less rollback.
func (b *BulkBuilder) Stop() { b.w.Stop() }

// BatchStats exposes the underlying batch writer's counters.
func (b *BulkBuilder) BatchStats() records.BatchStats { return b.w.Stats() }

// appendChild attaches a reduced child (facade subtree, literal or
// proxy) to a frame and re-packs the frame if it overflowed. types, when
// non-nil, is the child's precomputed type set (a closed frame's), kept
// with the child for later run packing; nil means the child is a single
// node (literal or proxy) whose one type is added directly.
func (b *BulkBuilder) appendChild(f *bulkFrame, n *noderep.Node, cs int, types *noderep.TypeSet, hasProxy bool) error {
	f.node.AppendChild(n)
	f.sizes = append(f.sizes, cs)
	f.kidTypes = append(f.kidTypes, types)
	f.kidProxy = append(f.kidProxy, hasProxy || n.Kind == noderep.KindProxy)
	if types != nil {
		f.types.Merge(types)
	} else {
		f.types.AddNode(n)
	}
	f.content += noderep.EmbeddedHeaderSize + cs
	return b.reduce(f)
}

// reduce flushes pending children into partition records until the
// frame fits the record budget again. The first pass honors the split
// matrix's ∞ pins; if pinning prevents progress ("kept as long as
// possible in the same record", §3.3), a relaxed pass ignores it —
// mirroring separatorWithProgress on the incremental path.
func (b *BulkBuilder) reduce(f *bulkFrame) error {
	for f.recordSize() > b.budget {
		progress, err := b.flushOnce(f, false)
		if err != nil {
			return err
		}
		if !progress {
			progress, err = b.flushOnce(f, true)
			if err != nil {
				return err
			}
			if !progress {
				// Nothing reducible (e.g. a single proxy child): the frame
				// is as small as it can get; emission enforces the page
				// bound.
				return nil
			}
		}
	}
	return nil
}

// flushOnce packs one maximal run of flushable children into a
// partition record, replacing the run with a proxy. Returns whether the
// frame shrank.
func (b *BulkBuilder) flushOnce(f *bulkFrame, relax bool) (bool, error) {
	kids := f.node.Children
	pinned := func(c *noderep.Node) bool {
		return !relax && b.s.cfg.Matrix.Get(f.node.Label, c.Label) == PolicyCluster
	}
	for start := 0; start < len(kids); start++ {
		if pinned(kids[start]) {
			continue
		}
		// Grow the run while it fits the record budget (the +1 type
		// reserves the scaffolding aggregate entry). Each child's types
		// merge from its retained set; a child that overshoots is rolled
		// back out, so the set stays exact for the emitted record.
		runTypes := b.runScratch
		runTypes.Reset()
		runContent := 0
		runProxy := false
		end := start
		for end < len(kids) {
			c := kids[end]
			if pinned(c) {
				break
			}
			mark := runTypes.Len()
			if kt := f.kidTypes[end]; kt != nil {
				runTypes.Merge(kt)
			} else {
				runTypes.AddNode(c)
			}
			next := noderep.RecordOverhead(runTypes.Len()+1) + runContent + noderep.EmbeddedHeaderSize + f.sizes[end]
			if end > start && next > b.budget {
				// The run without c was already within budget (checked on
				// the previous iteration).
				runTypes.TruncateTo(mark)
				break
			}
			runContent += noderep.EmbeddedHeaderSize + f.sizes[end]
			runProxy = runProxy || f.kidProxy[end]
			end++
		}
		// Replacing the run with a proxy must shrink the frame: skip
		// unproductive runs (a lone proxy, or tinier-than-a-proxy tails).
		gain := runContent - (noderep.EmbeddedHeaderSize + records.RIDSize)
		if gain <= 0 || (end-start == 1 && kids[start].Kind == noderep.KindProxy) {
			continue
		}
		proxy, err := b.emitGroup(kids[start:end], runTypes, runContent, runProxy)
		if err != nil {
			return false, err
		}
		// The spliced-out children's retained type sets are dead now.
		for i := start; i < end; i++ {
			b.putTS(f.kidTypes[i])
		}
		// Splice in place: children[start:end) -> proxy.
		proxy.Parent = f.node
		kids[start] = proxy
		copy(kids[start+1:], kids[end:])
		f.node.Children = kids[:len(kids)-(end-start)+1]
		f.sizes[start] = records.RIDSize
		copy(f.sizes[start+1:], f.sizes[end:])
		f.sizes = f.sizes[:len(f.node.Children)]
		f.kidTypes[start] = nil
		copy(f.kidTypes[start+1:], f.kidTypes[end:])
		f.kidTypes = f.kidTypes[:len(f.node.Children)]
		f.kidProxy[start] = true
		copy(f.kidProxy[start+1:], f.kidProxy[end:])
		f.kidProxy = f.kidProxy[:len(f.node.Children)]
		// Rebuild the frame accounting from the retained child sets.
		f.types.Reset()
		f.types.AddNode(f.node)
		f.content = 0
		for i, c := range f.node.Children {
			if kt := f.kidTypes[i]; kt != nil {
				f.types.Merge(kt)
			} else {
				f.types.AddNode(c)
			}
			f.content += noderep.EmbeddedHeaderSize + f.sizes[i]
		}
		return true, nil
	}
	return false, nil
}

// emitGroup stores one run of sibling subtrees as a partition record
// and returns the node representing it on the parent level, applying
// §3.2.2's special cases: a run that is just one proxy is returned
// as-is (no record), and a single subtree needs no scaffolding
// aggregate. types is the exact type set of the run's subtrees and
// content their embedded content total (run headers included).
func (b *BulkBuilder) emitGroup(group []*noderep.Node, types *noderep.TypeSet, content int, hasProxy bool) (*noderep.Node, error) {
	if len(group) == 1 && group[0].Kind == noderep.KindProxy {
		return group[0], nil
	}
	var root *noderep.Node
	if len(group) == 1 {
		root = group[0]
		root.Parent = nil
		// A single subtree is the record root itself: its content size
		// excludes its own embedded header.
		content -= noderep.EmbeddedHeaderSize
	} else {
		root = noderep.NewScaffoldAggregate()
		for _, g := range group {
			root.AppendChild(g)
		}
		types.AddNode(root)
	}
	rid, err := b.emitRecord(root, records.NilRID, types, content, hasProxy)
	if err != nil {
		return nil, err
	}
	return noderep.NewProxy(rid), nil
}

// anyProxy reports whether any pending child's subtree holds a proxy.
func anyProxy(kidProxy []bool) bool {
	for _, p := range kidProxy {
		if p {
			return true
		}
	}
	return false
}

// emitRecord encodes and stores one record through the batch writer —
// its single write — then fixes the parent pointers of every record
// whose proxy it contains. types and content are the builder's
// incremental accounting for the subtree (EncodeWith cross-checks them
// against the bytes actually written).
func (b *BulkBuilder) emitRecord(root *noderep.Node, parent records.RID, types *noderep.TypeSet, content int, hasProxy bool) (records.RID, error) {
	root.Parent = nil
	rec := &noderep.Record{ParentRID: parent, Root: root}
	var dst []byte
	select {
	case dst = <-b.free:
	default:
	}
	body, err := noderep.EncodeWith(dst, rec, types, content)
	if err != nil {
		return records.NilRID, err
	}
	if len(body) > b.s.maxRecordSize() {
		return records.NilRID, fmt.Errorf("core: bulk record of %d bytes exceeds capacity %d", len(body), b.s.maxRecordSize())
	}
	rid, err := b.w.Insert(body)
	if err != nil {
		return records.NilRID, err
	}
	b.s.stats.recordsCreated.Add(1)
	b.created++
	if b.onRecord != nil {
		if err := b.onRecord(rid, root); err != nil {
			return records.NilRID, err
		}
	}
	b.parentOff[rid] = noderep.ParentRIDOffset(types.Len())
	if !hasProxy {
		return rid, nil
	}
	var enc [records.RIDSize]byte
	rid.Put(enc[:])
	var firstErr error
	root.Walk(func(n *noderep.Node) bool {
		if n.Kind != noderep.KindProxy {
			return true
		}
		off, ok := b.parentOff[n.Target]
		if !ok {
			firstErr = fmt.Errorf("core: bulk proxy to unknown record %s", n.Target)
			return false
		}
		if err := b.w.Patch(n.Target, off, enc[:]); err != nil {
			firstErr = err
			return false
		}
		b.s.stats.parentPatches.Add(1)
		delete(b.parentOff, n.Target)
		return true
	})
	if firstErr != nil {
		return records.NilRID, firstErr
	}
	return rid, nil
}
