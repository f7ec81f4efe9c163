// Package leakcheck asserts that an operation leaves no goroutine
// behind. It diffs the runtime/pprof goroutine profile taken just
// before the operation against the one taken just after it returns.
// The second look is taken once, with no retry or settle loop: an
// operation that joins every goroutine it starts passes on the first
// look, and one that does not is caught even when the straggler would
// have finished a moment later. Where one look cannot tell a joined
// goroutine from a leaked one (see Live), the check passes: it may miss
// a leak caught mid-transition, but never fails a correct operation.
package leakcheck

import (
	"bytes"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
)

// Live returns one stack dump per live goroutine, keyed by its
// "goroutine N" header. Goroutine IDs are never reused, so a key absent
// from an earlier dump names a goroutine started since.
//
// A goroutine that is exiting is left out. Joining a goroutine means
// waiting for its last signal (a channel close, a WaitGroup.Done), and
// after that signal the goroutine still has to return from its entry
// function; the joiner may run before it does. Such a goroutine is
// runnable or running, and has no frame left but its entry function,
// the sync calls of the signal itself and the runtime's exit code. A
// goroutine with work left is inside some other call, parked in a wait
// state or not yet started, and is kept. A goroutine about to park
// in its entry function looks the same as an exiting one for an
// instant; it is left out too.
func Live() map[string]string { return dump(false) }

// dump parses the goroutine profile, keeping exiting goroutines only
// when withExiting is set.
func dump(withExiting bool) map[string]string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	out := make(map[string]string)
	for _, g := range strings.Split(buf.String(), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" || (!withExiting && exiting(g)) {
			continue
		}
		id, _, _ := strings.Cut(g, " [")
		out[id] = g
	}
	return out
}

// exiting reports whether the goroutine dump g (debug=2 format) shows a
// goroutine past its last signal; see Live. Runtime frames are skipped:
// a goroutine whose entry function has returned shows only
// runtime.goexit. A goroutine that has not started yet also sits
// runnable in its entry function, but at its first line, printed
// without a "+0x" offset; it is kept.
func exiting(g string) bool {
	lines := strings.Split(g, "\n")
	if !strings.Contains(lines[0], "[runnable") && !strings.Contains(lines[0], "[running") {
		return false
	}
	// Frames are function/location line pairs after the header, ending
	// with the "created by" pair; the last frame is the entry function.
	var funcs, locs []string
	for i := 1; i+1 < len(lines); i += 2 {
		if strings.HasPrefix(lines[i], "created by ") {
			break
		}
		if !strings.HasPrefix(lines[i], "runtime.") {
			funcs = append(funcs, lines[i])
			locs = append(locs, lines[i+1])
		}
	}
	if len(funcs) == 0 {
		return true
	}
	if !strings.Contains(locs[len(locs)-1], " +0x") {
		return false
	}
	for _, fn := range funcs[:len(funcs)-1] {
		if !strings.HasPrefix(fn, "sync.") && !strings.HasPrefix(fn, "internal/sync.") && !strings.HasPrefix(fn, "internal/race.") {
			return false
		}
	}
	return true
}

// Check runs op and fails t if any goroutine live after op returned
// (see Live) was not alive before op started.
func Check(t testing.TB, op func()) {
	t.Helper()
	before := dump(true)
	op()
	var leaked []string
	for id, stack := range Live() {
		if _, ok := before[id]; !ok {
			leaked = append(leaked, stack)
		}
	}
	if len(leaked) > 0 {
		sort.Strings(leaked)
		t.Errorf("%d goroutine(s) outlived the operation:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}
