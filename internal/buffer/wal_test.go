package buffer

import (
	"bytes"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/wal"
)

func TestDiffRanges(t *testing.T) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	if got := diffRanges(old, new); got != nil {
		t.Fatalf("identical pages diff to %v", got)
	}
	// Two distant runs stay separate; two close runs merge.
	new[10] = 1
	new[12] = 2
	new[200] = 3
	got := diffRanges(old, new)
	if len(got) != 2 {
		t.Fatalf("got %d ranges, want 2: %+v", len(got), got)
	}
	if got[0].Off != 10 || len(got[0].Before) != 3 {
		t.Fatalf("first range %+v, want off 10 len 3", got[0])
	}
	if got[1].Off != 200 || len(got[1].Before) != 1 {
		t.Fatalf("second range %+v", got[1])
	}
	// Applying After onto old reproduces new; Before onto new restores old.
	redo := append([]byte(nil), old...)
	undo := append([]byte(nil), new...)
	for _, r := range got {
		copy(redo[r.Off:], r.After)
		copy(undo[r.Off:], r.Before)
	}
	if !bytes.Equal(redo, new) || !bytes.Equal(undo, old) {
		t.Fatal("ranges do not round-trip")
	}
}

func TestDiffRangesCollapse(t *testing.T) {
	old := make([]byte, 4096)
	new := make([]byte, 4096)
	for i := 0; i < 4096; i += 40 {
		new[i] = byte(i)
	}
	got := diffRanges(old, new)
	if len(got) > maxRanges {
		t.Fatalf("%d ranges, want collapse at %d", len(got), maxRanges)
	}
	redo := append([]byte(nil), old...)
	for _, r := range got {
		copy(redo[r.Off:], r.After)
	}
	if !bytes.Equal(redo, new) {
		t.Fatal("collapsed ranges do not reproduce the page")
	}
}

func TestEndUpdateLogsAndStamps(t *testing.T) {
	dev, _ := pagedev.NewMem(512)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	w, err := wal.OpenWriter(st, wal.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}

	dev.Grow(1)
	f, err := pool.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	u := f.BeginUpdate()
	f.Data()[100] = 0xAA
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	lsn1 := f.pageLSN.Load()
	if lsn1 == 0 {
		t.Fatal("fresh page update did not stamp an LSN")
	}

	// Second update on the same (no longer fresh) frame.
	u = f.BeginUpdate()
	f.Data()[101] = 0xBB
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	if f.pageLSN.Load() <= lsn1 {
		t.Fatal("page LSN must advance")
	}

	// A no-op mutation logs nothing.
	before := w.End()
	u = f.BeginUpdate()
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	if w.End() != before {
		t.Fatal("no-op update appended a record")
	}
	f.Unlatch()
	f.Release()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// The record stream: begin, image (fresh first write), update, commit.
	var types []string
	_, _, err = wal.Scan(st, func(r wal.Record) error {
		types = append(types, wal.TypeName(r.Type))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"begin", "image", "update", "commit"}
	if len(types) != len(want) {
		t.Fatalf("records %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("records %v, want %v", types, want)
		}
	}
}

func TestWriteBackWaitsForLog(t *testing.T) {
	// A dirty logged frame evicted under memory pressure must push the
	// log out first: after the eviction, the log storage contains the
	// frame's records even though no commit happened.
	dev, _ := pagedev.NewMem(512)
	pool, _ := New(dev, 1) // single frame: second Get evicts the first
	st := wal.NewMemStorage()
	w, _ := wal.OpenWriter(st, wal.Options{PageSize: 512})
	pool.AttachWAL(w)
	w.Begin("test", 0)

	dev.Grow(2)
	f, _ := pool.GetNew(0)
	f.Latch()
	u := f.BeginUpdate()
	f.Data()[50] = 0x77
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	f.Unlatch()
	f.Release()

	logged, _ := st.Size()
	if logged > 32 {
		t.Fatalf("log flushed before any write-back: %d bytes", logged)
	}
	g, err := pool.GetNew(1) // evicts frame 0, which is dirty
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	logged, _ = st.Size()
	if logged <= 32 {
		t.Fatal("write-back did not flush the log first (WAL rule)")
	}
	w.Commit()
}

func TestSelectiveEvictionUnderWALWithMidLoadSync(t *testing.T) {
	// The selective clock pass skips dirty frames whose log records are
	// not yet durable, so clean frames are evicted first; after a
	// mid-load sync makes the dirty frames' LSNs durable, dirty victims
	// must write back — never bypassing the WAL rule — and reload with
	// the right content.
	dev, _ := pagedev.NewMem(1024)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	w, err := wal.OpenWriter(st, wal.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	dev.Grow(16)

	// Two clean frames (written back) and two dirty logged frames whose
	// records are not yet synced.
	mutate := func(pn pagedev.PageNo) {
		t.Helper()
		f, err := pool.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch()
		u := f.BeginUpdate()
		s := pageformat.FormatSlotted(f.Data())
		s.Insert([]byte{byte(pn)})
		if err := f.EndUpdate(u); err != nil {
			t.Fatal(err)
		}
		f.Unlatch()
		f.Release()
	}
	mutate(0)
	mutate(1)
	if err := pool.FlushAll(); err != nil { // pages 0,1 now clean, device-backed
		t.Fatal(err)
	}
	mutate(2)
	mutate(3)
	if w.SyncedLSN() >= w.End() {
		t.Fatal("test premise: pages 2,3 must have unsynced log records")
	}

	// Under pressure the selective first pass must pick a clean victim
	// (0 or 1), not force a log sync for 2 or 3.
	synced := w.SyncedLSN()
	f, err := pool.Get(8)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if w.SyncedLSN() != synced {
		t.Fatal("eviction forced a log sync despite clean victims being available")
	}
	if pool.Resident(0) && pool.Resident(1) {
		t.Fatal("no clean victim was evicted")
	}
	if !pool.Resident(2) || !pool.Resident(3) {
		t.Fatal("dirty unsynced frame was evicted")
	}

	// Mid-load sync: the dirty frames become evictable, and their
	// write-back leaves a checksum-valid image the log covers.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for pn := pagedev.PageNo(9); pn < 12; pn++ {
		g, err := pool.Get(pn)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	if pool.Resident(2) && pool.Resident(3) {
		t.Fatal("synced dirty frames were not evicted after the mid-load sync")
	}
	buf := make([]byte, 1024)
	for _, pn := range []pagedev.PageNo{2, 3} {
		if pool.Resident(pn) {
			continue
		}
		if err := dev.Read(pn, buf); err != nil {
			t.Fatal(err)
		}
		if err := pageformat.VerifyChecksum(buf); err != nil {
			t.Fatalf("page %d after write-back: %v", pn, err)
		}
		if lsn := wal.LSN(pageformat.PageLSN(buf)); lsn == 0 || lsn > w.SyncedLSN() {
			t.Fatalf("page %d written back with LSN %d, log durable through %d", pn, lsn, w.SyncedLSN())
		}
		// The reload from the device carries the logged content.
		g, err := pool.Get(pn)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pageformat.AsSlotted(g.Data())
		if err != nil {
			t.Fatal(err)
		}
		cell, err := s.Cell(0)
		if err != nil || cell[0] != byte(pn) {
			t.Fatalf("page %d cell = %v, %v", pn, cell, err)
		}
		g.Release()
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}
