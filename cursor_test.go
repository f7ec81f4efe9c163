package natix

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"natix/internal/leakcheck"
)

// cursorMarkups drains a cursor, serializing every match.
func cursorMarkups(t *testing.T, cur *Cursor) []string {
	t.Helper()
	var out []string
	for cur.Next() {
		s, err := cur.Match().Markup()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCursorMatchesQuery is the equivalence pin: on the scan path, the
// indexed path and the flat-mode path, a drained cursor must yield
// byte-identical matches, in the same order with the same duplicates,
// as the materializing Query — they share one streaming evaluator.
func TestCursorMatchesQuery(t *testing.T) {
	queries := []string{
		"/PLAY//SPEAKER",
		"//SCENE/SPEECH[1]",
		"/PLAY/ACT[3]/SCENE[2]//SPEAKER",
		"/PLAY/ACT[1]/SCENE[1]/SPEECH[1]",
		"/PLAY/*",        // scan fallback even when indexed
		"//SPEECH//LINE", // nested descendant contexts
	}
	xml := corpusXML()
	for _, tc := range []struct {
		name    string
		indexed bool
		flat    bool
	}{
		{"scan", false, false},
		{"indexed", true, false},
		{"flat", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{PathIndex: tc.indexed})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if tc.flat {
				err = db.ImportXMLFlat("p", strings.NewReader(xml))
			} else {
				err = db.ImportXML("p", strings.NewReader(xml))
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				want := queryMarkups(t, db, "p", q)
				cur, err := db.QueryIter(context.Background(), "p", q)
				if err != nil {
					t.Fatalf("QueryIter(%q): %v", q, err)
				}
				got := cursorMarkups(t, cur)
				if len(got) != len(want) {
					t.Fatalf("%s: cursor yielded %d matches, Query %d", q, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: match %d differs:\ncursor: %s\nquery:  %s", q, i, got[i], want[i])
					}
				}

				// The iter.Seq2 adapter must agree too.
				cur2, err := db.QueryIter(context.Background(), "p", q)
				if err != nil {
					t.Fatal(err)
				}
				i := 0
				for m, err := range cur2.All() {
					if err != nil {
						t.Fatal(err)
					}
					s, err := m.Markup()
					if err != nil {
						t.Fatal(err)
					}
					if s != want[i] {
						t.Fatalf("%s: All() match %d differs", q, i)
					}
					i++
				}
				if i != len(want) {
					t.Fatalf("%s: All() yielded %d matches, want %d", q, i, len(want))
				}
			}
		})
	}
}

// TestCursorLimit pins WithLimit: the cursor yields exactly the first n
// matches of the full result and then reports exhaustion.
func TestCursorLimit(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}
	all := queryMarkups(t, db, "p", "//SPEAKER")
	if len(all) < 10 {
		t.Fatalf("corpus too small: %d speakers", len(all))
	}
	cur, err := db.QueryIter(context.Background(), "p", "//SPEAKER", WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	got := cursorMarkups(t, cur)
	if len(got) != 5 {
		t.Fatalf("limit 5 yielded %d matches", len(got))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("limited match %d differs from full result", i)
		}
	}
}

// TestCursorEarlyTerminationFewerReads asserts, via Stats, that early
// termination does strictly fewer logical page reads than full
// materialization: a //SPEAKER[1]-style positional query and a
// limit-1 cursor against the materializing //SPEAKER query, on the
// scan path and on the indexed path. The parsed-record cache is
// disabled so every record access is a buffer-pool access.
func TestCursorEarlyTerminationFewerReads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		indexed bool
	}{
		{"scan", false},
		{"indexed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{PathIndex: tc.indexed, CacheRecords: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
				t.Fatal(err)
			}

			reads := func(fn func()) int64 {
				before, err := db.Stats()
				if err != nil {
					t.Fatal(err)
				}
				fn()
				after, err := db.Stats()
				if err != nil {
					t.Fatal(err)
				}
				return after.LogicalReads - before.LogicalReads
			}

			// Cursor first: any in-memory warmup (decoded index summary,
			// cached posting lists) then favors the full query, keeping
			// the comparison conservative.
			cursorReads := reads(func() {
				cur, err := db.QueryIter(context.Background(), "p", "//SPEAKER", WithLimit(1))
				if err != nil {
					t.Fatal(err)
				}
				if !cur.Next() {
					t.Fatalf("no match: %v", cur.Err())
				}
				if _, err := cur.Match().Text(); err != nil {
					t.Fatal(err)
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
			})
			posReads := reads(func() {
				ms, err := db.Query("p", "//SPEAKER[1]")
				if err != nil {
					t.Fatal(err)
				}
				if len(ms) != 1 {
					t.Fatalf("//SPEAKER[1] yielded %d matches", len(ms))
				}
			})
			fullReads := reads(func() {
				if _, err := db.Query("p", "//SPEAKER"); err != nil {
					t.Fatal(err)
				}
			})

			if cursorReads >= fullReads {
				t.Errorf("limit-1 cursor did %d logical reads, full materialization %d; want strictly fewer", cursorReads, fullReads)
			}
			if posReads >= fullReads {
				t.Errorf("//SPEAKER[1] did %d logical reads, //SPEAKER %d; want strictly fewer", posReads, fullReads)
			}

			// Confirm the intended evaluator answered.
			st, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if tc.indexed && st.IndexedQueries == 0 {
				t.Error("indexed store answered no query from the index")
			}
			if !tc.indexed && st.IndexedQueries != 0 {
				t.Error("unindexed store claims indexed queries")
			}
		})
	}
}

// TestCursorCancelMidIteration pins context plumbing: cancelling the
// cursor's context between Next calls terminates iteration with the
// context's error and releases the document lock.
func TestCursorCancelMidIteration(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cur, err := db.QueryIter(ctx, "p", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("first Next failed: %v", cur.Err())
	}
	cancel()
	if cur.Next() {
		t.Fatal("Next succeeded after cancel")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", cur.Err())
	}
	if !errors.Is(cur.Close(), context.Canceled) {
		t.Fatal("Close should report the terminal error")
	}
	// The lock must be free: a delete proceeds immediately.
	if err := db.Delete("p"); err != nil {
		t.Fatalf("delete after cancelled cursor: %v", err)
	}

	// A context cancelled before the call fails the materializing
	// entry points too.
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(ctx, "p", "//SPEAKER"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext on cancelled ctx = %v", err)
	}
	if _, err := db.QueryIter(ctx, "p", "//SPEAKER"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryIter on cancelled ctx = %v", err)
	}
}

// TestCursorCloseReleasesLock pins the lock lifecycle: an open cursor
// blocks a writer of its document; Close (before exhaustion) unblocks
// it. Exhausting a cursor releases the lock without Close.
func TestCursorCloseReleasesLock(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}

	cur, err := db.QueryIter(context.Background(), "p", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("Next: %v", cur.Err())
	}
	done := make(chan error, 1)
	go func() { done <- db.Delete("p") }()
	select {
	case <-done:
		t.Fatal("Delete completed while the cursor held the read lock")
	case <-time.After(100 * time.Millisecond):
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delete after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Delete still blocked after Close")
	}

	// Exhaustion alone releases the lock.
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}
	cur, err = db.QueryIter(context.Background(), "p", "/PLAY/TITLE")
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("p"); err != nil {
		t.Fatalf("delete after exhausted (unclosed) cursor: %v", err)
	}
}

// TestCursorBlocksOnlyItsDocument pins the per-document scope of the
// cursor's lock: while a cursor on document A is open — even with a
// writer of A already queued behind it — mutations of document B
// proceed. (The writer mutex is taken after the document lock exactly
// so a mutator stuck behind a cursor stalls nothing else.)
func TestCursorBlocksOnlyItsDocument(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, d := range []string{"a", "b"} {
		if err := db.ImportXML(d, strings.NewReader(corpusXML())); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := db.QueryIter(context.Background(), "a", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	// Queue a writer on a behind the cursor.
	delA := make(chan error, 1)
	go func() { delA <- db.Delete("a") }()
	// A mutation of b must complete while a's writer is still blocked.
	delB := make(chan error, 1)
	go func() { delB <- db.Delete("b") }()
	select {
	case err := <-delB:
		if err != nil {
			t.Fatalf("delete of other document: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delete of another document stalled behind an open cursor")
	}
	select {
	case <-delA:
		t.Fatal("delete of cursor's document completed while cursor open")
	default:
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-delA; err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithBlockedWriterAndOpenCursor pins the shutdown path the
// lifecycle lock could deadlock on: a writer queued behind an open
// cursor holds the lifecycle lock shared, DB.Close queues behind the
// writer, and the cursor's Next must fail fast with ErrClosed (instead
// of queueing behind Close) so the whole chain drains.
func TestCloseWithBlockedWriterAndOpenCursor(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("a", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}
	cur, err := db.QueryIter(context.Background(), "a", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	del := make(chan error, 1)
	go func() { del <- db.Delete("a") }()
	closed := make(chan error, 1)
	go func() {
		// Give the delete a moment to queue on the document lock first.
		time.Sleep(50 * time.Millisecond)
		closed <- db.Close()
	}()

	// Keep iterating until the cursor notices the shutdown.
	deadline := time.After(10 * time.Second)
	for cur.Next() {
		select {
		case <-deadline:
			t.Fatal("cursor never observed the pending Close")
		default:
		}
	}
	if !errors.Is(cur.Err(), ErrClosed) {
		// The cursor may legitimately exhaust before Close queues; then
		// nothing was deadlocked in the first place — retry would be
		// flaky, exhaustion is success too (lock released, chain drains).
		if cur.Err() != nil {
			t.Fatalf("cursor error = %v, want ErrClosed or exhaustion", cur.Err())
		}
	}
	cur.Close()
	if err := <-del; err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("queued delete: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPreparedQueryReuse pins the prepared-query contract: validation
// errors at prepare time, reuse across documents and goroutines.
func TestPreparedQueryReuse(t *testing.T) {
	db, err := Open(Options{PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Prepare("SPEAKER"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("Prepare of a bad expression = %v, want ErrBadQuery", err)
	}

	docs := []string{"a", "b", "c"}
	for _, d := range docs {
		if err := db.ImportXML(d, strings.NewReader(corpusXML())); err != nil {
			t.Fatal(err)
		}
	}
	p, err := db.Prepare("//SCENE/SPEECH[1]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Expr() != "//SCENE/SPEECH[1]" {
		t.Fatalf("Expr = %q", p.Expr())
	}
	want, err := db.QueryCount(docs[0], "//SCENE/SPEECH[1]")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(docs)*2)
	for _, d := range docs {
		wg.Add(1)
		go func(d string) {
			defer wg.Done()
			n, err := p.Count(context.Background(), d)
			if err != nil {
				errs <- err
				return
			}
			if n != want {
				errs <- errors.New("prepared count mismatch on " + d)
			}
			cur, err := p.Iter(context.Background(), d)
			if err != nil {
				errs <- err
				return
			}
			defer cur.Close()
			got := 0
			for cur.Next() {
				got++
			}
			if err := cur.Err(); err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- errors.New("prepared cursor mismatch on " + d)
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSentinelErrors pins the package-level error contract.
func TestSentinelErrors(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("ghost", "//A"); !errors.Is(err, ErrDocNotFound) {
		t.Errorf("Query of missing doc = %v, want ErrDocNotFound", err)
	}
	if _, err := db.QueryIter(context.Background(), "ghost", "//A"); !errors.Is(err, ErrDocNotFound) {
		t.Errorf("QueryIter of missing doc = %v, want ErrDocNotFound", err)
	}
	if err := db.Delete("ghost"); !errors.Is(err, ErrDocNotFound) {
		t.Errorf("Delete of missing doc = %v, want ErrDocNotFound", err)
	}
	if err := db.ExportXML("ghost", &strings.Builder{}); !errors.Is(err, ErrDocNotFound) {
		t.Errorf("ExportXML of missing doc = %v, want ErrDocNotFound", err)
	}
	if _, err := db.Document("ghost"); !errors.Is(err, ErrDocNotFound) {
		t.Errorf("Document of missing doc = %v, want ErrDocNotFound", err)
	}
	if _, err := db.Query("ghost", "broken["); !errors.Is(err, ErrBadQuery) {
		t.Errorf("Query with bad expression = %v, want ErrBadQuery", err)
	}

	// Cursors over a closed DB fail with ErrClosed but still release
	// cleanly.
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}
	cur, err := db.QueryIter(context.Background(), "p", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if cur.Next() {
		t.Fatal("Next succeeded on a closed DB")
	}
	if !errors.Is(cur.Err(), ErrClosed) {
		t.Errorf("Err after DB close = %v, want ErrClosed", cur.Err())
	}
	if !errors.Is(cur.Close(), ErrClosed) {
		t.Error("Close should report ErrClosed")
	}
}

// TestImportCancelLeavesNoTrace pins ImportXMLContext's rollback: a
// cancelled import must not register the document, and the name stays
// importable.
func TestImportCancelLeavesNoTrace(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	leakcheck.Check(t, func() {
		if err := db.ImportXMLContext(ctx, "p", strings.NewReader(corpusXML())); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled import = %v, want context.Canceled", err)
		}
	})
	docs, err := db.Documents()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Fatalf("cancelled import left %d documents", len(docs))
	}
	if err := db.ImportXML("p", strings.NewReader(corpusXML())); err != nil {
		t.Fatalf("re-import after cancelled import: %v", err)
	}
	if n, err := db.QueryCount("p", "//SPEAKER"); err != nil || n == 0 {
		t.Fatalf("document unusable after rollback: n=%d err=%v", n, err)
	}
}

// TestScanQueryLeavesNoGoroutine: a navigating-scan query through a
// pool far smaller than the document misses on most pages, and must
// still return — materialized or through a cursor closed early — with
// every goroutine it started joined.
func TestScanQueryLeavesNoGoroutine(t *testing.T) {
	db, err := Open(Options{PageSize: 2048, BufferBytes: 8 * 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("p", strings.NewReader(testPlayXML("p", 60))); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, func() {
		ms, err := db.Query("p", "//LINE")
		if err != nil || len(ms) != 60*6 {
			t.Fatalf("scan query: %d matches, err %v", len(ms), err)
		}
	})
	leakcheck.Check(t, func() {
		cur, err := db.QueryIter(context.Background(), "p", "/PLAY/SCENE/SPEECH/LINE")
		if err != nil {
			t.Fatal(err)
		}
		if cur.Indexed() {
			t.Fatal("test premise: query must run as a navigating scan")
		}
		for i := 0; i < 10 && cur.Next(); i++ {
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	})
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PhysReads == 0 {
		t.Fatal("test premise: the pool must miss")
	}
}
