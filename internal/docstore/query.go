package docstore

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"natix/internal/core"
	"natix/internal/pathindex"
	"natix/internal/telemetry"
	"natix/internal/xmlkit"
)

// The path-query engine implements the fragment of XPath the paper's
// evaluation needs (§4.3): absolute paths of child steps (/A/B),
// descendant steps (//A), name tests, and 1-based positional predicates
// (A[3]). Query 1 is /PLAY/ACT[3]/SCENE[2]//SPEAKER, query 2 is
// //SCENE/SPEECH[1], query 3 is /PLAY/ACT[1]/SCENE[1]/SPEECH[1].
//
// All three evaluators (navigating scan, posting-list index, flat-mode
// parse) are written as streaming producers: matches are pushed to an
// emit callback in document order, and the producer unwinds as soon as
// the callback asks it to stop. Positional predicates terminate their
// step's enumeration once the selected match is found, so a query like
// //SPEECH[1] stops walking (or stops probing postings) at the first
// speech rather than collecting every one. Materialized Query, counting
// QueryCount and the lazy Iter cursor are all thin consumers of the
// same producers, which is what makes their results identical.

// Step is one location step.
type Step struct {
	Descendant bool   // true for a // step
	Name       string // element name test; "*" matches any element
	Pos        int    // 1-based positional predicate; 0 selects all
}

// ErrBadQuery reports an unparsable path expression.
var ErrBadQuery = errors.New("docstore: malformed path query")

// ParseQuery parses a path expression into steps.
func ParseQuery(q string) ([]Step, error) {
	if q == "" || q[0] != '/' {
		return nil, fmt.Errorf("%w: %q (must start with /)", ErrBadQuery, q)
	}
	var steps []Step
	i := 0
	for i < len(q) {
		if q[i] != '/' {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadQuery, q, i)
		}
		i++
		desc := false
		if i < len(q) && q[i] == '/' {
			desc = true
			i++
		}
		start := i
		for i < len(q) && q[i] != '/' && q[i] != '[' {
			i++
		}
		name := q[start:i]
		if name == "" {
			return nil, fmt.Errorf("%w: %q (empty step)", ErrBadQuery, q)
		}
		step := Step{Descendant: desc, Name: name}
		if i < len(q) && q[i] == '[' {
			end := strings.IndexByte(q[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("%w: %q (unclosed predicate)", ErrBadQuery, q)
			}
			n, err := strconv.Atoi(q[i+1 : i+end])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("%w: %q (bad position %q)", ErrBadQuery, q, q[i+1:i+end])
			}
			step.Pos = n
			i += end + 1
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// errStopIteration is returned by an emit callback to make the producer
// unwind cleanly: the consumer wants no more matches. It never escapes
// the package.
var errStopIteration = errors.New("docstore: stop iteration")

// errStepDone signals that a positional predicate selected its match
// and the step should stop enumerating the current context node. It is
// converted to a normal return inside the step evaluators.
var errStepDone = errors.New("docstore: step done")

// ctxErr reports a context's cancellation. The nil-Done fast path keeps
// queries under context.Background free of any per-page overhead.
func ctxErr(cx context.Context) error {
	if cx == nil || cx.Done() == nil {
		return nil
	}
	return cx.Err()
}

// Result is one query match. Exactly one of Ref (tree mode) or XML
// (flat mode) is meaningful. Results are usually consumed after the
// query returns (and releases the document lock), so Text and Markup
// re-take the document's read lock for the duration of each access —
// consuming matches stays safe while other goroutines query or mutate.
// Results produced by a live Iter skip the re-lock while the cursor
// still holds the document lock (re-locking there could deadlock behind
// a queued writer). A mutation of the matched document between query
// and consumption still invalidates the refs themselves (they address
// parsed records); hold off concurrent edits of a document whose
// matches are still being read.
type Result struct {
	Mode Mode
	Doc  string // catalog name of the queried document
	Ref  core.NodeRef
	XML  *xmlkit.Node

	store *Store
	iter  *Iter // set on cursor-produced results, for lock elision
}

// view runs fn with the document readable: under the cursor's lock when
// one is still held (pinned for fn's duration, so a concurrent
// exhaustion cannot release it mid-access), otherwise under a freshly
// taken read lock.
func (r Result) view(fn func() error) error {
	if r.iter != nil {
		if done, err := r.iter.withLock(fn); done {
			return err
		}
	}
	return r.store.View(r.Doc, fn)
}

// Text returns the concatenated text content of the match.
func (r Result) Text() (string, error) {
	if r.Mode == ModeFlat {
		return r.XML.TextContent(), nil
	}
	var out string
	err := r.view(func() error {
		var err error
		out, err = r.store.trees.TextContent(r.Ref)
		return err
	})
	return out, err
}

// Markup returns the XML serialization of the match ("recreates the
// textual representation", query 2).
func (r Result) Markup() (string, error) {
	if r.Mode == ModeFlat {
		return xmlkit.SerializeString(r.XML), nil
	}
	var out string
	err := r.view(func() error {
		xn, err := r.store.xmlFromRef(context.Background(), r.Ref)
		if err != nil {
			return err
		}
		out = xmlkit.SerializeString(xn)
		return nil
	})
	return out, err
}

// Query evaluates a path expression against a document, materializing
// every match. It is QueryContext under context.Background.
func (s *Store) Query(name, query string) ([]Result, error) {
	return s.QueryContext(context.Background(), name, query)
}

// QueryContext evaluates a path expression against a document. For
// flat-mode documents the whole stream is read and parsed first —
// exactly the access cost the paper ascribes to flat storage
// ("Accessing the documents' structure is only possible through
// parsing", §1). For tree-mode documents the path index answers the
// query when one is stored and every step is a plain name test;
// otherwise the evaluator navigates the stored tree. The context is
// checked at page-fetch granularity, so a cancelled query stops loading
// records promptly.
func (s *Store) QueryContext(cx context.Context, name, query string) ([]Result, error) {
	steps, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return s.QuerySteps(cx, name, steps)
}

// QuerySteps is QueryContext over a pre-parsed expression (the prepared
// query path: parse once, evaluate many times).
func (s *Store) QuerySteps(cx context.Context, name string, steps []Step) ([]Result, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	if err := s.checkQuarantine(name); err != nil {
		return nil, err
	}
	l := s.lockFor(name)
	l.RLock()
	defer l.RUnlock()
	info, ok := s.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	start := telemetry.Now()
	if info.Mode == ModeFlat {
		s.flatQueries.Add(1)
		sp := s.startOp("query:flat", name)
		defer sp.End()
		var out []Result
		err := s.streamFlat(cx, info, steps, func(n *xmlkit.Node) error {
			out = append(out, Result{Mode: ModeFlat, Doc: name, XML: n, store: s})
			return nil
		})
		sp.Add("matches", int64(len(out)))
		s.mQueryFlatNS.Observe(int64(telemetry.Since(start)))
		return out, err
	}
	idx, err := s.indexFor(info, steps)
	if err != nil {
		return nil, err
	}
	if idx != nil {
		s.indexedQueries.Add(1)
		sp := s.startOp("query:indexed", name)
		defer sp.End()
		ch := sp.Child("postings")
		posts, err := s.collectIndexed(cx, idx, steps)
		ch.Add("postings", int64(len(posts)))
		ch.End()
		if err != nil {
			return nil, err
		}
		ch = sp.Child("resolve")
		refs, err := s.resolvePostings(posts)
		ch.End()
		if err != nil {
			return nil, err
		}
		out := make([]Result, len(refs))
		for i, ref := range refs {
			out[i] = Result{Mode: ModeTree, Doc: name, Ref: ref, store: s}
		}
		sp.Add("matches", int64(len(out)))
		s.mQueryIndexedNS.Observe(int64(telemetry.Since(start)))
		return out, nil
	}
	s.scanQueries.Add(1)
	sp := s.startOp("query:scan", name)
	defer sp.End()
	var out []Result
	err = s.streamScan(cx, info, steps, func(ref core.NodeRef) error {
		out = append(out, Result{Mode: ModeTree, Doc: name, Ref: ref, store: s})
		return nil
	})
	sp.Add("matches", int64(len(out)))
	s.mQueryScanNS.Observe(int64(telemetry.Since(start)))
	return out, err
}

// QueryCount returns the number of matches without materializing them.
// It is QueryCountContext under context.Background.
func (s *Store) QueryCount(name, query string) (int, error) {
	return s.QueryCountContext(context.Background(), name, query)
}

// QueryCountContext counts matches without materializing results. On
// the indexed path the matches are counted directly from the posting
// lists, never touching the matched records.
func (s *Store) QueryCountContext(cx context.Context, name, query string) (int, error) {
	steps, err := ParseQuery(query)
	if err != nil {
		return 0, err
	}
	return s.QueryCountSteps(cx, name, steps)
}

// QueryCountSteps is QueryCountContext over a pre-parsed expression.
func (s *Store) QueryCountSteps(cx context.Context, name string, steps []Step) (int, error) {
	if len(steps) == 0 {
		return 0, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	if err := s.checkQuarantine(name); err != nil {
		return 0, err
	}
	l := s.lockFor(name)
	l.RLock()
	defer l.RUnlock()
	info, ok := s.lookup(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	start := telemetry.Now()
	count := 0
	if info.Mode == ModeFlat {
		s.flatQueries.Add(1)
		sp := s.startOp("count:flat", name)
		defer sp.End()
		err := s.streamFlat(cx, info, steps, func(*xmlkit.Node) error {
			count++
			return nil
		})
		sp.Add("matches", int64(count))
		s.mQueryFlatNS.Observe(int64(telemetry.Since(start)))
		return count, err
	}
	idx, err := s.indexFor(info, steps)
	if err != nil {
		return 0, err
	}
	if idx != nil {
		s.indexedQueries.Add(1)
		sp := s.startOp("count:indexed", name)
		defer sp.End()
		err := s.streamIndexed(cx, idx, steps, func(pathindex.Posting) error {
			count++
			return nil
		})
		sp.Add("matches", int64(count))
		s.mQueryIndexedNS.Observe(int64(telemetry.Since(start)))
		return count, err
	}
	s.scanQueries.Add(1)
	sp := s.startOp("count:scan", name)
	defer sp.End()
	err = s.streamScan(cx, info, steps, func(core.NodeRef) error {
		count++
		return nil
	})
	sp.Add("matches", int64(count))
	s.mQueryScanNS.Observe(int64(telemetry.Since(start)))
	return count, err
}

// streamFlat reads and parses a flat-mode document, then streams the
// matches of the parsed tree.
func (s *Store) streamFlat(cx context.Context, info DocInfo, steps []Step, emit func(*xmlkit.Node) error) error {
	body, err := s.blobs.Read(info.Root)
	if err != nil {
		return err
	}
	doc, err := xmlkit.ParseString(string(body), xmlkit.ParseOptions{})
	if err != nil {
		return err
	}
	err = xmlStep(cx, doc.Root, true, steps, emit)
	if errors.Is(err, errStopIteration) {
		return errStopIteration
	}
	return err
}

// scanScratch recycles the per-frame child buffers of one navigating
// traversal: frame d of the recursion expands children into bufs[d],
// so a steady-state scan allocates nothing once every level's buffer
// has grown to its widest node. Scratches are pooled on the Store.
type scanScratch struct {
	bufs  [][]core.NodeRef
	depth int
}

// push hands out the current frame's buffer (empty, capacity kept).
func (sc *scanScratch) push() []core.NodeRef {
	if sc.depth == len(sc.bufs) {
		sc.bufs = append(sc.bufs, nil)
	}
	buf := sc.bufs[sc.depth][:0]
	sc.depth++
	return buf
}

// pop returns a frame's buffer, keeping whatever capacity it grew.
func (sc *scanScratch) pop(buf []core.NodeRef) {
	sc.depth--
	sc.bufs[sc.depth] = buf
}

// streamScan evaluates steps by navigating the stored tree (the
// fallback when no index applies), pushing matches to emit in document
// order. emit may return errStopIteration to stop the walk early; the
// context is checked before every record load.
func (s *Store) streamScan(cx context.Context, info DocInfo, steps []Step, emit func(core.NodeRef) error) error {
	tree := s.trees.OpenTree(info.Root)
	root, err := tree.Root()
	if err != nil {
		return err
	}
	sc, _ := s.scanPool.Get().(*scanScratch)
	if sc == nil {
		sc = new(scanScratch)
	}
	err = s.scanStep(cx, sc, root, true, steps, emit)
	// An error unwind skips pops; reset so the scratch pools clean.
	sc.depth = 0
	s.scanPool.Put(sc)
	return err
}

// scanStep evaluates the remaining steps against one context node. The
// first step of a query is evaluated with isRoot set: its context is
// the document root itself, which a name test (and a descendant step)
// may match directly. A positional predicate counts matches as they
// stream by, recurses into the selected one, and then abandons the rest
// of the context's enumeration — the early-termination win over the old
// collect-then-index evaluator.
func (s *Store) scanStep(cx context.Context, sc *scanScratch, ref core.NodeRef, isRoot bool, steps []Step, emit func(core.NodeRef) error) error {
	if len(steps) == 0 {
		return emit(ref)
	}
	st := steps[0]
	count := 0
	sink := func(m core.NodeRef) error {
		count++
		if st.Pos == 0 {
			return s.scanStep(cx, sc, m, false, steps[1:], emit)
		}
		if count < st.Pos {
			return nil
		}
		if err := s.scanStep(cx, sc, m, false, steps[1:], emit); err != nil {
			return err
		}
		return errStepDone
	}
	var err error
	switch {
	case st.Descendant:
		if isRoot {
			// The root itself is eligible: collectDescendants semantics
			// put a matching root before its matching descendants.
			var ok bool
			if ok, err = s.refMatches(ref, st.Name); err == nil && ok {
				err = sink(ref)
			}
		}
		if err == nil {
			err = s.walkDescendants(cx, sc, ref, st.Name, sink)
		}
	case isRoot:
		var ok bool
		if ok, err = s.refMatches(ref, st.Name); err == nil && ok {
			err = sink(ref)
		}
	default:
		if err = ctxErr(cx); err != nil {
			break
		}
		kids := sc.push()
		if kids, err = s.trees.ChildrenAppend(ref, kids); err != nil {
			sc.pop(kids)
			break
		}
		for i := range kids {
			var ok bool
			if ok, err = s.refMatches(kids[i], st.Name); err != nil {
				break
			}
			if ok {
				if err = sink(kids[i]); err != nil {
					break
				}
			}
		}
		sc.pop(kids)
	}
	if errors.Is(err, errStepDone) {
		return nil
	}
	return err
}

// walkDescendants streams all strict descendants of ref matching name,
// in document order, into sink. The context is checked before every
// ChildrenAppend call — i.e. before every record (and therefore page)
// fetch.
func (s *Store) walkDescendants(cx context.Context, sc *scanScratch, ref core.NodeRef, name string, sink func(core.NodeRef) error) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	kids := sc.push()
	kids, err := s.trees.ChildrenAppend(ref, kids)
	if err != nil {
		sc.pop(kids)
		return err
	}
	for i := range kids {
		ok, err := s.refMatches(kids[i], name)
		if err != nil {
			sc.pop(kids)
			return err
		}
		if ok {
			if err := sink(kids[i]); err != nil {
				sc.pop(kids)
				return err
			}
		}
		if !kids[i].IsLiteral() {
			if err := s.walkDescendants(cx, sc, kids[i], name, sink); err != nil {
				sc.pop(kids)
				return err
			}
		}
	}
	sc.pop(kids)
	return nil
}

// refMatches tests a name step against a node.
func (s *Store) refMatches(ref core.NodeRef, name string) (bool, error) {
	if ref.IsLiteral() {
		return name == "#text", nil
	}
	if name == "*" {
		n, err := s.dict.Name(ref.Label())
		if err != nil {
			return false, err
		}
		return !strings.HasPrefix(n, AttrPrefix), nil
	}
	id, ok := s.dict.Lookup(name)
	if !ok {
		return false, nil
	}
	return ref.Label() == id, nil
}

// xmlStep is scanStep over a parsed XML tree (flat mode): same step
// semantics, same order, no storage I/O. The context is still honored
// so a cancelled flat query stops mid-tree.
func xmlStep(cx context.Context, n *xmlkit.Node, isRoot bool, steps []Step, emit func(*xmlkit.Node) error) error {
	if len(steps) == 0 {
		return emit(n)
	}
	st := steps[0]
	count := 0
	sink := func(m *xmlkit.Node) error {
		count++
		if st.Pos == 0 {
			return xmlStep(cx, m, false, steps[1:], emit)
		}
		if count < st.Pos {
			return nil
		}
		if err := xmlStep(cx, m, false, steps[1:], emit); err != nil {
			return err
		}
		return errStepDone
	}
	var err error
	switch {
	case st.Descendant:
		if isRoot && xmlMatches(n, st.Name) {
			err = sink(n)
		}
		if err == nil {
			err = walkXMLDescendants(cx, n, st.Name, sink)
		}
	case isRoot:
		if xmlMatches(n, st.Name) {
			err = sink(n)
		}
	default:
		if err = ctxErr(cx); err != nil {
			break
		}
		for _, c := range n.Children {
			if xmlMatches(c, st.Name) {
				if err = sink(c); err != nil {
					break
				}
			}
		}
	}
	if errors.Is(err, errStepDone) {
		return nil
	}
	return err
}

func walkXMLDescendants(cx context.Context, n *xmlkit.Node, name string, sink func(*xmlkit.Node) error) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	for _, c := range n.Children {
		if xmlMatches(c, name) {
			if err := sink(c); err != nil {
				return err
			}
		}
		if err := walkXMLDescendants(cx, c, name, sink); err != nil {
			return err
		}
	}
	return nil
}

func xmlMatches(n *xmlkit.Node, name string) bool {
	if n.IsText() {
		return name == "#text"
	}
	return name == "*" || n.Name == name
}
