package natix

// Crash-recovery fault-injection tests: a shared crash clock counts
// every write — database page writes and log writes alike — and the
// matrix "crashes the machine" at write 1, write 2, ... of an
// operation, reboots from exactly the bytes that survived, and checks
// that restart recovery restores a consistent store: the pre-existing
// document byte-identical, the interrupted operation either fully
// applied or fully absent, physical invariants intact, and the store
// still writable. The torn variant half-applies the crashing write.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/wal"
)

// faultLogStorage wraps an in-memory log storage with the shared crash
// clock: every WriteAt ticks it, and once crashed every operation
// fails, like a process that is simply gone. The crashing write can
// tear (first half of the buffer reaches storage).
type faultLogStorage struct {
	inner *wal.MemStorage
	clock *pagedev.CrashClock
}

func (f *faultLogStorage) WriteAt(p []byte, off int64) (int, error) {
	crash, torn := f.clock.Tick()
	if !crash {
		return f.inner.WriteAt(p, off)
	}
	if torn && len(p) > 1 {
		f.inner.WriteAt(p[:len(p)/2], off)
	}
	return 0, pagedev.ErrInjected
}

func (f *faultLogStorage) ReadAt(p []byte, off int64) (int, error) {
	if f.clock.Check() {
		return 0, pagedev.ErrInjected
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultLogStorage) Size() (int64, error) {
	if f.clock.Check() {
		return 0, pagedev.ErrInjected
	}
	return f.inner.Size()
}

func (f *faultLogStorage) Truncate(n int64) error {
	if f.clock.Check() {
		return pagedev.ErrInjected
	}
	return f.inner.Truncate(n)
}

func (f *faultLogStorage) Sync() error {
	if f.clock.Check() {
		return pagedev.ErrInjected
	}
	return f.inner.Sync()
}

func (f *faultLogStorage) Close() error { return nil }

// crashOpts is the store configuration the crash matrix runs under: a
// tiny buffer pool so imports overflow it and dirty pages are written
// back mid-operation (exercising the WAL rule and undo), and the path
// index on so index maintenance is inside the operation boundary.
func crashOpts() Options {
	return Options{
		PageSize:    2048,
		BufferBytes: 16 * 2048,
		WAL:         true,
		PathIndex:   true,
		walBufLimit: 1, // every log record append = one write = one crash point
	}.withDefaults()
}

// snapshotDev copies the surviving device contents (reading the
// underlying Mem directly: the fault wrapper refuses reads after a
// crash, but the test harness plays the role of the disk).
func snapshotDev(t *testing.T, mem *pagedev.Mem) [][]byte {
	t.Helper()
	n := int(mem.NumPages())
	pages := make([][]byte, n)
	for i := 0; i < n; i++ {
		pages[i] = make([]byte, mem.PageSize())
		if err := mem.Read(pagedev.PageNo(i), pages[i]); err != nil {
			t.Fatalf("snapshot page %d: %v", i, err)
		}
	}
	return pages
}

func restoreDev(t *testing.T, pageSize int, pages [][]byte) *pagedev.Mem {
	t.Helper()
	mem, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Grow(pagedev.PageNo(len(pages))); err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if err := mem.Write(pagedev.PageNo(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// crashState is one frozen pre-operation store image.
type crashState struct {
	pages [][]byte
	log   []byte
}

// buildBaseState creates a store with one committed document ("keep")
// and checkpoints it, returning the frozen image and the document's
// canonical export.
func buildBaseState(t *testing.T) (crashState, string) {
	t.Helper()
	opts := crashOpts()
	mem, err := pagedev.NewMem(opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	// A disarmed fault wrapper keeps the Mem alive across db.Close (its
	// Close is a no-op), so the post-close bytes can be snapshotted.
	var clock pagedev.CrashClock
	db, err := openWith(opts, pagedev.NewFault(mem, &clock), nil, st, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("keep", strings.NewReader(testPlayXML("keep", 8))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.ExportXML("keep", &buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}, buf.String()
}

// testPlayXML generates a small but structurally varied document:
// nested elements, attributes, repeated siblings, text runs.
func testPlayXML(title string, scenes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<PLAY id=%q><TITLE>The tragedy of %s</TITLE>", title, title)
	for i := 0; i < scenes; i++ {
		fmt.Fprintf(&b, "<SCENE n=\"%d\"><STAGEDIR>Enter %s</STAGEDIR>", i, title)
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&b, "<SPEECH><SPEAKER>S%d</SPEAKER><LINE>words of scene %d line %d, %s</LINE></SPEECH>", j, i, j, strings.Repeat("on and on ", 8))
		}
		b.WriteString("</SCENE>")
	}
	b.WriteString("</PLAY>")
	return b.String()
}

// openCrashDB opens a store over a frozen image with the crash clock
// armed at budget (0 disarms), returning the DB plus the live devices
// for post-crash snapshotting.
func openCrashDB(t *testing.T, state crashState, clock *pagedev.CrashClock) (*DB, *pagedev.Mem, *wal.MemStorage, error) {
	t.Helper()
	opts := crashOpts()
	mem := restoreDev(t, opts.PageSize, state.pages)
	st := wal.NewMemStorageFrom(state.log)
	db, err := openWith(opts, pagedev.NewFault(mem, clock), nil, &faultLogStorage{inner: st, clock: clock}, true)
	return db, mem, st, err
}

// verifyRecovered reboots from the surviving bytes, letting restart
// recovery repair the store, and runs the scenario's checks. It
// returns the recovered DB for further checks; the caller closes it.
func verifyRecovered(t *testing.T, mem *pagedev.Mem, st *wal.MemStorage, check func(db *DB)) {
	t.Helper()
	state := crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}
	var clock pagedev.CrashClock // disarmed
	db, _, _, err := openCrashDB(t, state, &clock)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	// Physical invariants of every surviving tree document.
	docs, err := db.Documents()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if d.Flat {
			continue
		}
		doc, err := db.Document(d.Name)
		if err != nil {
			t.Fatalf("Document(%s): %v", d.Name, err)
		}
		if err := doc.Check(); err != nil {
			t.Fatalf("invariants of %q violated after recovery: %v", d.Name, err)
		}
	}
	check(db)
	// The recovered store must still be writable end to end.
	if err := db.ImportXML("post-crash", strings.NewReader("<OK><X a=\"1\">fine</X></OK>")); err != nil {
		t.Fatalf("recovered store refuses imports: %v", err)
	}
	if err := db.Delete("post-crash"); err != nil {
		t.Fatal(err)
	}
}

func exportOf(t *testing.T, db *DB, name string) (string, bool) {
	t.Helper()
	var buf bytes.Buffer
	err := db.ExportXML(name, &buf)
	if errors.Is(err, ErrDocNotFound) {
		return "", false
	}
	if err != nil {
		t.Fatalf("export %q: %v", name, err)
	}
	return buf.String(), true
}

// runCrashMatrix executes op against the frozen base state, crashing
// at every write offset (and, in torn mode, tearing the crashing
// write), then verifies recovery after each crash.
func runCrashMatrix(t *testing.T, torn bool, op func(db *DB) error, check func(t *testing.T, db *DB, crashed bool)) {
	state, keepXML := buildBaseState(t)
	completed := false
	for budget := int64(1); budget <= 10000; budget++ {
		var clock pagedev.CrashClock
		clock.SetBudget(budget, torn)
		db, mem, st, err := openCrashDB(t, state, &clock)
		if err != nil {
			// The crash landed inside Open itself (e.g. during the
			// session's first page reads — nothing written yet, but the
			// clock blocks everything). Skip to a later offset.
			if clock.Crashed() {
				continue
			}
			t.Fatalf("budget %d: open: %v", budget, err)
		}
		opErr := op(db)
		crashed := clock.Crashed()
		if opErr == nil && !crashed {
			// The whole operation fit under the budget: matrix done.
			clock.Disarm()
			db.Close()
			completed = true
			if budget == 1 {
				t.Fatal("operation issued no writes at all?")
			}
			t.Logf("crash matrix covered %d write offsets", budget-1)
			break
		}
		if opErr == nil && crashed {
			t.Fatalf("budget %d: crash injected but operation reported success", budget)
		}
		// Crash: abandon the DB (no Close — the machine is gone),
		// reboot from the surviving bytes and verify.
		clock.Disarm()
		verifyRecovered(t, mem, st, func(rdb *DB) {
			got, ok := exportOf(t, rdb, "keep")
			if !ok {
				t.Fatalf("budget %d: pre-existing document lost", budget)
			}
			if got != keepXML {
				t.Fatalf("budget %d: pre-existing document altered after recovery", budget)
			}
			check(t, rdb, true)
		})
	}
	if !completed {
		t.Fatal("crash matrix never ran the operation to completion")
	}
}

// TestWALFileCleanRoundTrip exercises the real file-backed path: a
// logged session closes cleanly (checkpoint + truncated log) and
// reopens without recovery work.
func TestWALFileCleanRoundTrip(t *testing.T) {
	path := t.TempDir() + "/store.natix"
	db, err := Open(Options{Path: path, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	xml := testPlayXML("filed", 6)
	if err := db.ImportXML("filed", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	want, _ := exportOf(t, db, "filed")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec, err := db2.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovered {
		t.Fatalf("clean close still required recovery: %+v", rec)
	}
	got, ok := exportOf(t, db2, "filed")
	if !ok || got != want {
		t.Fatal("document did not survive the file round trip")
	}
}

// TestWALFileKillRedo kills a file-backed session without Close — the
// log holds committed operations whose pages never reached the
// database file — and checks that reopening redoes them.
func TestWALFileKillRedo(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.natix"
	db, err := Open(Options{Path: path, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	xml := testPlayXML("killed", 6)
	if err := db.ImportXML("killed", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	want, _ := exportOf(t, db, "killed")
	// "kill -9": copy the on-disk state out from under the live
	// process, which never gets to flush or close.
	copyFile := func(src, dst string) {
		t.Helper()
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(path, dir+"/copy.natix")
	copyFile(path+"-wal", dir+"/copy.natix-wal")

	db2, err := Open(Options{Path: dir + "/copy.natix", WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec, err := db2.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered || rec.RedoneOps == 0 {
		t.Fatalf("kill without close must trigger redo, got %+v", rec)
	}
	got, ok := exportOf(t, db2, "killed")
	if !ok || got != want {
		t.Fatal("committed import lost after kill")
	}
	doc, err := db2.Document("killed")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatalf("invariants after redo: %v", err)
	}
	db.Close() // release the original
}

// TestStaleWALDiscardedOnFreshCreate: deleting the database file but
// not its log, then creating a new database at the same path, must
// discard the stale log — whether or not the new session enables WAL —
// or a later Open would replay the dead database's records onto the
// new one.
func TestStaleWALDiscardedOnFreshCreate(t *testing.T) {
	for _, newSessionWAL := range []bool{false, true} {
		name := "recreate-unlogged"
		if newSessionWAL {
			name = "recreate-logged"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := dir + "/db.natix"
			db1, err := Open(Options{Path: path, WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := db1.ImportXML("old", strings.NewReader("<OLD>gone</OLD>")); err != nil {
				t.Fatal(err)
			}
			// Kill the session (no Close: the log stays populated) and
			// delete only the database file.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(Options{Path: path, WAL: newSessionWAL})
			if err != nil {
				t.Fatal(err)
			}
			if err := db2.ImportXML("new", strings.NewReader("<NEW>kept</NEW>")); err != nil {
				t.Fatal(err)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}

			db3, err := Open(Options{Path: path, WAL: true})
			if err != nil {
				t.Fatalf("reopen after recreate: %v", err)
			}
			defer db3.Close()
			if _, ok := exportOf(t, db3, "old"); ok {
				t.Fatal("stale log was replayed onto the recreated database")
			}
			if got, ok := exportOf(t, db3, "new"); !ok || !strings.Contains(got, "kept") {
				t.Fatal("recreated database lost its own document")
			}
			db1.Close()
		})
	}
}

func TestCrashRecoveryImport(t *testing.T) {
	// ~45 KB of XML against a 32 KB pool: evictions write dirty pages
	// (and force log flushes) all through the import — crash points
	// land mid-operation on both files, not just at commit.
	importXML := testPlayXML("doomed", 30)
	for _, torn := range []bool{false, true} {
		name := "clean-cut"
		if torn {
			name = "torn-write"
		}
		t.Run(name, func(t *testing.T) {
			runCrashMatrix(t,
				torn,
				func(db *DB) error {
					return db.ImportXML("doomed", strings.NewReader(importXML))
				},
				func(t *testing.T, db *DB, crashed bool) {
					// Atomicity: the import is all-or-nothing.
					got, ok := exportOf(t, db, "doomed")
					if ok && got == "" {
						t.Fatal("document present but empty")
					}
					if ok {
						// Present: must match a clean import of the same
						// bytes, byte for byte.
						ref, err := Open(Options{PageSize: 2048})
						if err != nil {
							t.Fatal(err)
						}
						defer ref.Close()
						if err := ref.ImportXML("doomed", strings.NewReader(importXML)); err != nil {
							t.Fatal(err)
						}
						want, _ := exportOf(t, ref, "doomed")
						if got != want {
							t.Fatal("recovered import is not byte-identical")
						}
					}
				},
			)
		})
	}
}

func TestCrashRecoveryDelete(t *testing.T) {
	runCrashMatrix(t,
		false,
		func(db *DB) error { return db.Delete("keep") },
		func(t *testing.T, db *DB, crashed bool) {
			// runCrashMatrix already asserted "keep" survives byte-
			// identically; a crash during delete must never land
			// in between. (If the delete had committed before the
			// crash the matrix's keep-check would fail — the commit
			// record is the last write, and every later write belongs
			// to the checkpoint, after which the op cannot crash.)
		},
	)
}

func TestCrashRecoveryDeleteTorn(t *testing.T) {
	runCrashMatrix(t,
		true,
		func(db *DB) error { return db.Delete("keep") },
		func(t *testing.T, db *DB, crashed bool) {},
	)
}

func TestCrashRecoveryConvert(t *testing.T) {
	runCrashMatrix(t,
		false,
		func(db *DB) error { return db.Convert("keep", true) },
		func(t *testing.T, db *DB, crashed bool) {
			// Content equality is checked by the matrix; mode may be
			// either, depending on where the crash landed.
		},
	)
}
