package natix

// Integrity fault-injection tests: silent corruption (bit flips on the
// device behind the pool's back), transient I/O errors, and device
// exhaustion, against the self-healing machinery — the scrubber's
// detection sweep, WAL-based page repair, document quarantine, and the
// bounded retry at every I/O site. The crash matrix in recovery_test.go
// covers torn writes and process death; this file covers the failures a
// machine survives.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"natix/internal/leakcheck"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/records"
	"natix/internal/wal"
)

func integrityOpts() Options {
	return Options{
		PageSize:    2048,
		BufferBytes: 32 * 2048,
		WAL:         true,
	}.withDefaults()
}

// openIntegrityDB builds an in-memory store behind a disarmed fault
// wrapper, so tests can flip bits and inject transient errors on the
// device while the engine runs normally.
func openIntegrityDB(t *testing.T) (*DB, *pagedev.Mem, *pagedev.Fault) {
	t.Helper()
	opts := integrityOpts()
	mem, err := pagedev.NewMem(opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	fault := pagedev.NewFault(mem, new(pagedev.CrashClock))
	db, err := openWith(opts, fault, nil, wal.NewMemStorage(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, mem, fault
}

func mustImport(t *testing.T, db *DB, name string, scenes int) {
	t.Helper()
	if err := db.ImportXML(name, strings.NewReader(testPlayXML(name, scenes))); err != nil {
		t.Fatalf("import %s: %v", name, err)
	}
}

func mustExport(t *testing.T, db *DB, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.ExportXML(name, &buf); err != nil {
		t.Fatalf("export %s: %v", name, err)
	}
	return buf.String()
}

// bodyBit is a bit well inside the page body: past the 16-byte common
// header (so the magic survives and the CRC is what catches the flip)
// and inside the checksummed span.
func bodyBit(pageSize int) int { return pageSize / 2 * 8 }

func pageSet(pages []pagedev.PageNo) map[pagedev.PageNo]bool {
	set := make(map[pagedev.PageNo]bool, len(pages))
	for _, p := range pages {
		set[p] = true
	}
	return set
}

func TestScrubCleanStore(t *testing.T) {
	db, mem, _ := openIntegrityDB(t)
	mustImport(t, db, "alpha", 4)
	mustImport(t, db, "beta", 3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean store reported dirty: %+v", rep)
	}
	if got := rep.PagesChecked + rep.PagesResident; got != int64(mem.NumPages()) {
		t.Fatalf("scrub covered %d of %d pages", got, mem.NumPages())
	}
	st, err := db.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scrubs != 1 || st.PagesVerified == 0 || st.Repairs != 0 || st.Quarantines != 0 {
		t.Fatalf("unexpected counters: %+v", st)
	}
}

// TestScrubRepairsFromWALImages corrupts exactly the pages the current
// log epoch holds an image for: the scrub must rebuild every one of
// them byte-for-byte, quarantine nothing, and leave the documents
// exporting identically.
func TestScrubRepairsFromWALImages(t *testing.T) {
	db, _, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 4)
	if err := db.Flush(); err != nil { // checkpoint: log truncated, image index cleared
		t.Fatal(err)
	}
	mustImport(t, db, "gamma", 3) // post-checkpoint: every page it touches is imaged
	wantAlpha := mustExport(t, db, "alpha")
	wantGamma := mustExport(t, db, "gamma")
	if err := db.pool.Clear(); err != nil { // device now holds the full state
		t.Fatal(err)
	}
	imaged := db.wal.ImagedPages()
	if len(imaged) == 0 {
		t.Fatal("post-checkpoint import left no page images in the log")
	}
	for _, p := range imaged {
		if err := fault.FlipBit(p, bodyBit(db.opts.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound != int64(len(imaged)) {
		t.Fatalf("found %d corrupt pages, flipped %d", rep.CorruptFound, len(imaged))
	}
	if got, want := pageSet(rep.Repaired), pageSet(imaged); len(got) != len(want) {
		t.Fatalf("repaired %v, want %v", rep.Repaired, imaged)
	} else {
		for p := range want {
			if !got[p] {
				t.Fatalf("page %d not repaired; repaired set %v", p, rep.Repaired)
			}
		}
	}
	if len(rep.Unrepaired) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("full repair expected: %+v", rep)
	}
	if got := mustExport(t, db, "gamma"); got != wantGamma {
		t.Error("gamma export changed after repair")
	}
	if got := mustExport(t, db, "alpha"); got != wantAlpha {
		t.Error("alpha export changed after repair")
	}
	// A second pass over the repaired store finds nothing.
	rep, err = db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store dirty after repair: %+v", rep)
	}
}

// TestScrubQuarantineAndRecovery corrupts a page only one document owns
// and no log image covers: that document must be quarantined (its
// operations failing fast with ErrQuarantined), every other document
// must keep working, and undoing the damage plus one more scrub must
// lift the quarantine without a restart.
func TestScrubQuarantineAndRecovery(t *testing.T) {
	db, _, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 4)
	mustImport(t, db, "beta", 4)
	wantAlpha := mustExport(t, db, "alpha")
	wantBeta := mustExport(t, db, "beta")
	if err := db.Flush(); err != nil { // checkpoint: nothing imaged, nothing repairable
		t.Fatal(err)
	}
	alphaPages, err := db.store.PageOwners("alpha")
	if err != nil {
		t.Fatal(err)
	}
	betaPages, err := db.store.PageOwners("beta")
	if err != nil {
		t.Fatal(err)
	}
	inAlpha := pageSet(alphaPages)
	var victim pagedev.PageNo
	seg := db.store.Trees().Records().Segment()
	for _, p := range betaPages {
		if seg.IsDataPage(p) && !inAlpha[p] {
			victim = p
		}
	}
	if victim == 0 {
		t.Fatal("no page owned by beta alone")
	}
	if err := db.pool.Clear(); err != nil {
		t.Fatal(err)
	}
	bit := bodyBit(db.opts.PageSize)
	if err := fault.FlipBit(victim, bit); err != nil {
		t.Fatal(err)
	}

	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound != 1 || len(rep.Unrepaired) != 1 || rep.Unrepaired[0] != victim {
		t.Fatalf("scrub of one bad page: %+v", rep)
	}
	if _, ok := rep.Quarantined["beta"]; !ok || len(rep.Quarantined) != 1 {
		t.Fatalf("want beta alone quarantined, got %v", rep.Quarantined)
	}

	// The quarantined document fails fast on every entry point.
	if err := db.ExportXML("beta", &bytes.Buffer{}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("export of quarantined doc: %v", err)
	}
	if _, err := db.Query("beta", "/PLAY/TITLE"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("query of quarantined doc: %v", err)
	}
	if err := db.Delete("beta"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("delete of quarantined doc: %v", err)
	}
	q, err := db.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q["beta"]; !ok {
		t.Fatalf("Quarantined() missing beta: %v", q)
	}

	// Everything else keeps serving: reads of alpha, and fresh imports
	// (the bad page is fenced from the allocator, so new records cannot
	// land on it).
	if got := mustExport(t, db, "alpha"); got != wantAlpha {
		t.Error("alpha export changed while beta quarantined")
	}
	mustImport(t, db, "delta", 2)
	if _, err := db.Query("delta", "/PLAY/TITLE"); err != nil {
		t.Fatalf("query of fresh doc while beta quarantined: %v", err)
	}

	// "Restore from backup": flip the bit back — the page is again
	// byte-identical to its checksummed state — and rescrub.
	if err := fault.FlipBit(victim, bit); err != nil {
		t.Fatal(err)
	}
	rep, err = db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store dirty after restore: %+v", rep)
	}
	if got := mustExport(t, db, "beta"); got != wantBeta {
		t.Error("beta export changed after quarantine lifted")
	}
}

// TestCorruptionMatrixEveryPage flips one bit in every formatted page
// of the store. The scrub must detect 100% of the damage, repair
// exactly the pages the log has an image for (plus the recomputable
// inventory pages), quarantine the documents owning the rest, and never
// serve a wrong answer.
func TestCorruptionMatrixEveryPage(t *testing.T) {
	// The matrix runs on the buffer pool alone: no compressed second
	// memory tier sits between the pool and the device.
	t.Run("tier-off", corruptionMatrixEveryPage)
}

func corruptionMatrixEveryPage(t *testing.T) {
	db, mem, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 4)
	mustImport(t, db, "beta", 3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	mustImport(t, db, "gamma", 2) // post-checkpoint: fully covered by log images
	exports := map[string]string{
		"alpha": mustExport(t, db, "alpha"),
		"beta":  mustExport(t, db, "beta"),
		"gamma": mustExport(t, db, "gamma"),
	}
	owners := make(map[string]map[pagedev.PageNo]bool)
	for name := range exports {
		pages, err := db.store.PageOwners(name)
		if err != nil {
			t.Fatalf("owners of %s: %v", name, err)
		}
		owners[name] = pageSet(pages)
	}
	if err := db.pool.Clear(); err != nil {
		t.Fatal(err)
	}
	imaged := pageSet(db.wal.ImagedPages())
	seg := db.store.Trees().Records().Segment()

	// Flip one bit in every formatted page. Unformatted pages (all
	// zeroes, recorded fully free in the inventory) hold no data to
	// corrupt; the scrubber proves them benign via the free hint.
	buf := make([]byte, db.opts.PageSize)
	var flipped []pagedev.PageNo
	for p := pagedev.PageNo(0); p < mem.NumPages(); p++ {
		if err := mem.Read(p, buf); err != nil {
			t.Fatal(err)
		}
		if pageformat.TypeOf(buf) == pageformat.TypeInvalid {
			continue
		}
		if err := fault.FlipBit(p, bodyBit(db.opts.PageSize)); err != nil {
			t.Fatal(err)
		}
		flipped = append(flipped, p)
	}
	if len(flipped) < 8 {
		t.Fatalf("store too small to be interesting: %d formatted pages", len(flipped))
	}

	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}

	// Detection: every flipped page, no exceptions.
	if rep.CorruptFound != int64(len(flipped)) {
		t.Fatalf("detected %d of %d corrupt pages: %+v", rep.CorruptFound, len(flipped), rep)
	}
	// Repair: exactly the log-covered pages, the recomputable FSI
	// pages, and the header (restored from the checkpoint snapshot).
	wantRepaired := make(map[pagedev.PageNo]bool)
	for _, p := range flipped {
		if imaged[p] || p == 0 || seg.IsFSIPage(p) {
			wantRepaired[p] = true
		}
	}
	gotRepaired := pageSet(rep.Repaired)
	for p := range wantRepaired {
		if !gotRepaired[p] {
			t.Errorf("page %d (imaged=%v fsi=%v) not repaired", p, imaged[p], seg.IsFSIPage(p))
		}
	}
	for p := range gotRepaired {
		if !wantRepaired[p] {
			t.Errorf("page %d repaired with no repair source", p)
		}
	}
	if got, want := len(rep.Unrepaired), len(flipped)-len(wantRepaired); got != want {
		t.Errorf("unrepaired %d pages, want %d: %v", got, want, rep.Unrepaired)
	}

	// Quarantine: exactly the documents owning an unrepaired page (all
	// of them if the segment header is lost). Gamma was written entirely
	// after the checkpoint, so every page it owns is imaged and it must
	// survive.
	unrepaired := pageSet(rep.Unrepaired)
	headerLost := unrepaired[0]
	for name := range exports {
		hit := headerLost
		for p := range owners[name] {
			if unrepaired[p] {
				hit = true
			}
		}
		_, quarantined := rep.Quarantined[name]
		if hit != quarantined {
			t.Errorf("%s: owns damage %v, quarantined %v (%v)", name, hit, quarantined, rep.Quarantined)
		}
	}
	for p := range owners["gamma"] {
		if !imaged[p] {
			t.Errorf("gamma page %d not covered by a log image", p)
		}
	}
	if _, ok := rep.Quarantined["gamma"]; ok {
		t.Fatalf("fully log-covered document quarantined: %v", rep.Quarantined)
	}

	// Never a wrong answer: repaired documents export byte-identically,
	// quarantined ones refuse with the typed error.
	for name, want := range exports {
		if _, bad := rep.Quarantined[name]; bad {
			if err := db.ExportXML(name, &bytes.Buffer{}); !errors.Is(err, ErrQuarantined) {
				t.Errorf("export of quarantined %s: %v", name, err)
			}
			continue
		}
		if got := mustExport(t, db, name); got != want {
			t.Errorf("%s export changed after repair", name)
		}
	}
}

// TestTransientErrorsAbsorbed injects fail-twice-then-succeed read and
// write errors: operations must succeed with no caller-visible effect
// beyond the retry counters.
func TestTransientErrorsAbsorbed(t *testing.T) {
	db, _, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 4)
	want := mustExport(t, db, "alpha")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	pages, err := db.store.PageOwners("alpha")
	if err != nil {
		t.Fatal(err)
	}
	// The ownership walk above pulled alpha's pages into the pool;
	// clear it so the export below must hit the faulted device.
	if err := db.pool.Clear(); err != nil {
		t.Fatal(err)
	}
	fault.InjectReadErrors(pages[0], 2) // fail twice, then succeed
	if got := mustExport(t, db, "alpha"); got != want {
		t.Error("export changed under transient read errors")
	}
	st, err := db.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if st.IORetries < 2 {
		t.Fatalf("expected >= 2 absorbed retries, got %d", st.IORetries)
	}

	// A deterministic sprinkling of transient episodes across a whole
	// import and checkpoint: still no visible failure.
	fault.SeedTransient(42, 8, 2)
	mustImport(t, db, "beta", 3)
	if err := db.Flush(); err != nil {
		t.Fatalf("checkpoint under seeded transient errors: %v", err)
	}
	fault.SeedTransient(0, 0, 0)
	if got := mustExport(t, db, "beta"); got == "" {
		t.Error("empty export after seeded transient errors")
	}
	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("transient errors left damage: %+v", rep)
	}
}

// TestENOSPCImportRollsBack fails every Grow mid-bulk-import: the
// import must roll back atomically — catalog unchanged, existing
// documents untouched — and succeed once space returns.
func TestENOSPCImportRollsBack(t *testing.T) {
	// Pin the batch writer's flusher on: the failure path under test
	// must join it before the rollback, whatever GOMAXPROCS is.
	old := records.SetFlushInline(false)
	defer records.SetFlushInline(old)
	db, _, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 4)
	want := mustExport(t, db, "alpha")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fault.FailGrow(1 << 30)
	leakcheck.Check(t, func() {
		err := db.ImportXML("big", strings.NewReader(testPlayXML("big", 12)))
		if !errors.Is(err, pagedev.ErrNoSpace) {
			t.Fatalf("import on a full device: %v", err)
		}
	})
	docs, err := db.Documents()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if d.Name == "big" {
			t.Fatal("failed import left a catalog entry")
		}
	}
	if got := mustExport(t, db, "alpha"); got != want {
		t.Error("alpha changed by a rolled-back import")
	}
	// Space returns: the same import succeeds and the store is intact.
	fault.FailGrow(0)
	mustImport(t, db, "big", 12)
	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store dirty after ENOSPC recovery: %+v", rep)
	}
}

// TestENOSPCMutationRollsBack fails Grow during an in-place document
// edit large enough to need fresh pages.
func TestENOSPCMutationRollsBack(t *testing.T) {
	db, _, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 2)
	doc, err := db.Document("alpha")
	if err != nil {
		t.Fatal(err)
	}
	before, err := doc.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	fault.FailGrow(1 << 30)
	// Insert page-sized texts until the existing slack runs out and an
	// allocation needs Grow: that insert must fail with ENOSPC and roll
	// back, leaving the node count at its pre-insert value.
	text := strings.Repeat("no space for this text, ", 60) // ~1.4 KB
	var hitENOSPC bool
	for i := 0; i < 300 && !hitENOSPC; i++ {
		n, err := doc.NodeCount()
		if err != nil {
			t.Fatal(err)
		}
		switch err := doc.InsertText([]int{}, 0, text); {
		case err == nil:
			before = n + 1
		case errors.Is(err, pagedev.ErrNoSpace):
			hitENOSPC = true
			if after, err := doc.NodeCount(); err != nil || after != n {
				t.Fatalf("node count %d -> %d (err %v) after rollback", n, after, err)
			}
		default:
			t.Fatalf("insert on a full device: %v", err)
		}
	}
	if !hitENOSPC {
		t.Fatal("300 inserts never needed the device to grow")
	}
	fault.FailGrow(0)
	if err := doc.Check(); err != nil {
		t.Fatalf("invariants after rolled-back insert: %v", err)
	}
	if err := doc.InsertText([]int{}, 0, text); err != nil {
		t.Fatalf("same insert once space returned: %v", err)
	}
	if after, err := doc.NodeCount(); err != nil || after != before+1 {
		t.Fatalf("node count %d, want %d after space returned (err %v)", after, before+1, err)
	}
}

// TestIntegritySentinelErrors pins the errors.Is contracts of the
// public sentinels added for the integrity subsystem.
func TestIntegritySentinelErrors(t *testing.T) {
	if !errors.Is(fmt.Errorf("op: %w", ErrQuarantined), ErrQuarantined) {
		t.Error("wrapped ErrQuarantined does not match")
	}
	if !errors.Is(fmt.Errorf("op: %w", ErrTransientIO), ErrTransientIO) {
		t.Error("wrapped ErrTransientIO does not match")
	}
	if !errors.Is(pagedev.ErrTransient, ErrTransientIO) {
		t.Error("facade sentinel does not alias the device sentinel")
	}
	if errors.Is(ErrTransientIO, ErrCorrupted) || errors.Is(ErrQuarantined, ErrDocNotFound) {
		t.Error("sentinels must be distinct")
	}

	// A device that never stops failing must surface the transient
	// sentinel to the caller once the retry budget is exhausted.
	db, _, fault := openIntegrityDB(t)
	mustImport(t, db, "alpha", 2)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	pages, err := db.store.PageOwners("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.pool.Clear(); err != nil { // exports below must hit the device
		t.Fatal(err)
	}
	fault.InjectReadErrors(pages[0], 1<<20)
	if err := db.ExportXML("alpha", &bytes.Buffer{}); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("exhausted retries surface %v, want ErrTransientIO", err)
	}
	fault.InjectReadErrors(pages[0], 0)
}

// TestBackgroundScrubLoop exercises Options.ScrubInterval: passes run
// on their own, and Close waits out the in-flight one.
func TestBackgroundScrubLoop(t *testing.T) {
	opts := integrityOpts()
	opts.ScrubInterval = 2 * time.Millisecond
	mem, err := pagedev.NewMem(opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	db, err := openWith(opts, mem, nil, wal.NewMemStorage(), false)
	if err != nil {
		t.Fatal(err)
	}
	mustImport(t, db, "alpha", 3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := db.Integrity()
		if err != nil {
			t.Fatal(err)
		}
		if st.Scrubs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never ran: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ScrubNow(); !errors.Is(err, ErrClosed) {
		t.Fatalf("scrub after close: %v", err)
	}
}
