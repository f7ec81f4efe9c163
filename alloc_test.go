package natix

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestQueryZeroAlloc pins the allocation discipline of the read path:
// once a cursor is open and the touched records are warm, advancing it
// must not allocate — neither on the posting-list (indexed) route nor
// on the navigating scan. Guarded here so a future change that slips
// an allocation into the per-match path fails loudly instead of slowly.
//
// Skipped under -race: the detector instruments allocations and
// AllocsPerRun would report its bookkeeping, not ours.
func TestQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}

	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "<item n=\"%d\">v%d</item>", i, i)
	}
	b.WriteString("</root>")
	src := b.String()

	open := func(t *testing.T, pathIndex bool) *DB {
		t.Helper()
		db, err := Open(Options{PageSize: 4096, PathIndex: pathIndex})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.ImportXML("d", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		return db
	}

	measure := func(t *testing.T, db *DB, wantIndexed bool) float64 {
		t.Helper()
		// Warm every record the query touches (and, on the indexed
		// route, the posting blobs) with one full materializing
		// evaluation — QueryCount would not do: the indexed count never
		// resolves postings to records.
		if ms, err := db.Query("d", "//item"); err != nil || len(ms) != 400 {
			t.Fatalf("warmup: n=%d err=%v", len(ms), err)
		}
		cur, err := db.QueryIter(context.Background(), "d", "//item")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if got := cur.Indexed(); got != wantIndexed {
			t.Fatalf("Indexed() = %v, want %v", got, wantIndexed)
		}
		if !cur.Next() { // first Next starts the producer
			t.Fatal("no matches")
		}
		return testing.AllocsPerRun(200, func() {
			if !cur.Next() {
				t.Fatal("cursor exhausted mid-measurement")
			}
			_ = cur.Match()
		})
	}

	t.Run("indexed", func(t *testing.T) {
		db := open(t, true)
		if avg := measure(t, db, true); avg != 0 {
			t.Errorf("indexed cursor: %.2f allocs/op, want 0", avg)
		}
	})
	t.Run("scan", func(t *testing.T) {
		db := open(t, false)
		if avg := measure(t, db, false); avg != 0 {
			t.Errorf("scan cursor: %.2f allocs/op, want 0", avg)
		}
	})
}
