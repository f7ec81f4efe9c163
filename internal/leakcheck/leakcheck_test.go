package leakcheck

import (
	"fmt"
	"sync"
	"testing"
)

// recorder is a testing.TB that records Errorf calls instead of failing.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// park signals that it is running, then blocks until release closes.
// While it runs, the goroutine's stack holds a frame besides its entry
// function, so Check cannot mistake it for an exiting goroutine.
//
//go:noinline
func park(running chan<- struct{}, release <-chan struct{}) {
	running <- struct{}{}
	<-release
}

func TestCheckCatchesParkedGoroutine(t *testing.T) {
	running := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	r := &recorder{TB: t}
	Check(r, func() {
		go func() {
			defer close(done)
			park(running, release)
		}()
		<-running
	})
	close(release)
	<-done
	if len(r.errs) != 1 {
		t.Fatalf("Check reported %d errors for a goroutine left parked, want 1", len(r.errs))
	}
}

func TestCheckPassesJoinedGoroutines(t *testing.T) {
	for i := 0; i < 200; i++ {
		r := &recorder{TB: t}
		Check(r, func() {
			var wg sync.WaitGroup
			for j := 0; j < 4; j++ {
				wg.Add(1)
				go func() { defer wg.Done() }()
			}
			wg.Wait()
			out := make(chan int)
			go func() {
				defer close(out)
				out <- 1
			}()
			for range out {
			}
		})
		if len(r.errs) != 0 {
			t.Fatalf("run %d: joined goroutines reported as leaked:\n%s", i, r.errs[0])
		}
	}
}

func TestExiting(t *testing.T) {
	cases := []struct {
		name string
		dump string
		want bool
	}{
		{"returning from entry", `goroutine 9 [runnable]:
natix/internal/docstore.(*Store).runImportPipeline.func1()
	/src/pipeline.go:97 +0x2bb
created by natix/internal/docstore.(*Store).runImportPipeline in goroutine 8
	/src/pipeline.go:80 +0x46b`, true},
		{"inside WaitGroup.Done", `goroutine 12 [running]:
sync.(*WaitGroup).Add(0xc000010000, 0xffffffffffffffff)
	/go/src/sync/waitgroup.go:118 +0x1a
sync.(*WaitGroup).Done(...)
	/go/src/sync/waitgroup.go:156
main.worker()
	/src/main.go:10 +0x5c
created by main.main in goroutine 1
	/src/main.go:20 +0x25`, true},
		{"in goexit", `goroutine 18299 [runnable]:
runtime.goexit1()
	/go/src/runtime/proc.go:4292 +0xf0
runtime.goexit({})
	/go/src/runtime/asm_amd64.s:1701 +0x6
created by main.main in goroutine 1
	/src/main.go:45 +0x57`, true},
		{"not started", `goroutine 6 [runnable]:
main.main.func1()
	/src/main.go:13
created by main.main in goroutine 1
	/src/main.go:13 +0x6b`, false},
		{"parked", `goroutine 25 [chan receive]:
natix/internal/records.(*BatchWriter).flusher(0xc0000b6210)
	/src/batch.go:202 +0x65
created by natix/internal/records.(*BatchWriter).submit in goroutine 12
	/src/batch.go:188 +0x1f8`, false},
		{"working", `goroutine 30 [runnable]:
natix/internal/buffer.(*Pool).loadInto(0xc000100000)
	/src/buffer.go:420 +0x40
natix/internal/buffer.(*Pool).worker(0xc000100000)
	/src/buffer.go:400 +0x80
created by natix/internal/buffer.(*Pool).start in goroutine 7
	/src/buffer.go:390 +0x25`, false},
	}
	for _, c := range cases {
		if got := exiting(c.dump); got != c.want {
			t.Errorf("%s: exiting = %v, want %v", c.name, got, c.want)
		}
	}
}
