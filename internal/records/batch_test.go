package records

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBatchWriterRoundTrip(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.9)
	var rids []RID
	var want [][]byte
	for i := 0; i < 50; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 40+i*3)
		rid, err := w.Insert(body)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want = append(want, body)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := m.Read(rid)
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rid, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d: body mismatch", i)
		}
	}
	st := w.Stats()
	if st.Records != 50 {
		t.Fatalf("Records = %d, want 50", st.Records)
	}
	if st.Pages < 2 {
		t.Fatalf("Pages = %d, want several (bodies exceed one page)", st.Pages)
	}
	// Pages must be packed densely: far fewer pages than records.
	if st.Pages >= st.Records {
		t.Fatalf("no packing: %d pages for %d records", st.Pages, st.Records)
	}
}

func TestBatchWriterSequentialPages(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(1.0)
	var pages []uint64
	for i := 0; i < 60; i++ {
		rid, err := w.Insert(bytes.Repeat([]byte{1}, 100))
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) == 0 || uint64(rid.Page) != pages[len(pages)-1] {
			pages = append(pages, uint64(rid.Page))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pages); i++ {
		if pages[i] <= pages[i-1] {
			t.Fatalf("pages not sequential: %v", pages)
		}
	}
}

func TestBatchWriterFillFactorLeavesSlack(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.5)
	var first RID
	for i := 0; i < 20; i++ {
		rid, err := w.Insert(bytes.Repeat([]byte{2}, 100))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rid
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	free, err := m.PageFreeBytes(first.Page)
	if err != nil {
		t.Fatal(err)
	}
	if free < m.MaxRecordSize()/4 {
		t.Fatalf("fill 0.5 left only %d free bytes on page %d", free, first.Page)
	}
	// The slack must be discoverable: a normal insert near that page can
	// use it.
	rid, err := m.Insert(bytes.Repeat([]byte{3}, 100), first.Page)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != first.Page {
		t.Fatalf("slack not reused: insert went to page %d, not %d", rid.Page, first.Page)
	}
}

func TestBatchWriterPatch(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.9)
	// Patch a buffered record.
	bufRID, err := w.Insert([]byte("aaaaaaaaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Patch(bufRID, 2, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	// Force materialization, then patch an on-disk record.
	for i := 0; i < 30; i++ {
		if _, err := w.Insert(bytes.Repeat([]byte{9}, 120)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Patch(bufRID, 4, []byte("ZW")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(bufRID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaXYZWaaaa" {
		t.Fatalf("patched body = %q", got)
	}
	// Out-of-range patch on a buffered record must fail.
	w2 := m.NewBatchWriter(0.9)
	rid, err := w2.Insert([]byte("12345678"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Patch(rid, 6, []byte("toolong")); err == nil {
		t.Fatal("out-of-range patch succeeded")
	}
}

func TestBatchWriterDiscard(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.9)
	var rids []RID
	for i := 0; i < 40; i++ {
		rid, err := w.Insert(bytes.Repeat([]byte{byte(i)}, 90))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := w.Discard(); err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		if _, err := m.Read(rid); err == nil {
			t.Fatalf("record %s survived Discard", rid)
		}
	}
	// The abandoned pages must be reusable by ordinary inserts.
	if _, err := m.Insert(bytes.Repeat([]byte{7}, 200), 0); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWriterOversizeRecordAlone(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.5)
	// A record bigger than the fill budget but within page capacity must
	// still be stored (alone on its page).
	big := bytes.Repeat([]byte{5}, m.MaxRecordSize())
	rid, err := w.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]byte("next-record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("oversize body mismatch")
	}
	if _, err := w.Insert(bytes.Repeat([]byte{6}, m.MaxRecordSize()+1)); err == nil {
		t.Fatal("accepted record above page capacity")
	}
}

func TestBatchWriterManyPagesStats(t *testing.T) {
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.9)
	n := 0
	for p := 0; p < 10; p++ {
		for i := 0; i < 8; i++ {
			if _, err := w.Insert([]byte(fmt.Sprintf("record-%03d-%03d", p, i))); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != int64(n) {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	if st.Pages == 0 || st.Bytes == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// forceAsyncFlusher pins the flusher-goroutine path on: a single-CPU
// machine defaults to inline flushing, and the handoff protocol under
// test lives in the concurrent code.
func forceAsyncFlusher(t *testing.T) {
	t.Helper()
	old := flushInline
	flushInline = false
	t.Cleanup(func() { flushInline = old })
}

// TestBatchWriterAsyncFlusher drives the two-stage writer with the
// flusher goroutine pinned on: bodies round-trip, patches race the
// materialization without being lost, and Discard unwinds everything
// the flusher already wrote.
func TestBatchWriterAsyncFlusher(t *testing.T) {
	forceAsyncFlusher(t)
	m := newManager(t, 1024)
	w := m.NewBatchWriter(0.9)
	var rids []RID
	var want [][]byte
	for i := 0; i < 200; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 40+i%37)
		rid, err := w.Insert(body)
		if err != nil {
			t.Fatal(err)
		}
		// Patch a body from a few pages back while the flusher may
		// still (or may not) have it in the pending table.
		if i >= 20 && i%5 == 0 {
			prev := rids[i-20]
			patch := []byte{0xAA, 0xBB}
			if err := w.Patch(prev, 0, patch); err != nil {
				t.Fatal(err)
			}
			copy(want[i-20], patch)
		}
		rids = append(rids, rid)
		// The writer owns body now (its flusher reads it); keep the
		// expected bytes in a copy of our own.
		want = append(want, bytes.Clone(body))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := m.Read(rid)
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rid, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d: body mismatch after async flush", i)
		}
	}
	if st := w.Stats(); st.Records != 200 {
		t.Fatalf("Records = %d, want 200", st.Records)
	}

	// A second writer, discarded mid-load: every record its flusher
	// already materialized must be gone, the first writer's untouched.
	w2 := m.NewBatchWriter(0.9)
	var second []RID
	for i := 0; i < 120; i++ {
		rid, err := w2.Insert(bytes.Repeat([]byte{0xEE}, 60))
		if err != nil {
			t.Fatal(err)
		}
		second = append(second, rid)
	}
	if err := w2.Discard(); err != nil {
		t.Fatal(err)
	}
	for _, rid := range second {
		if _, err := m.Read(rid); err == nil {
			t.Fatalf("discarded record %s still readable", rid)
		}
	}
	for i, rid := range rids {
		got, err := m.Read(rid)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("first batch damaged by discard: record %d err=%v", i, err)
		}
	}
}
