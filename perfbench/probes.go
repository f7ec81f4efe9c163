package main

// Standalone layer probes, timed through the layers' own public
// functions outside the engine: what parsing and serializing cost per
// MB, and what one page read or write through pagedev.File and one log
// append plus Sync through wal.FileStorage cost on the host the
// benchmark runs on. They run only in a trace run, after set-up.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"natix/internal/pagedev"
	"natix/internal/wal"
	"natix/internal/xmlkit"
)

const (
	probeReps       = 3    // corpus passes per xmlkit probe; the median is kept
	probePageReads  = 4000 // random page reads of the store file
	probePageWrites = 1000 // page writes, each putting back the bytes just read
	probeLogSyncs   = 200  // 4 KB appends, each followed by Sync
	storePageSize   = 8192 // Options.PageSize default
)

// runProbes runs every standalone probe; storePath is a closed store.
func (b *bench) runProbes(storePath string) error {
	b.probes = map[string]metric{}
	mb := float64(b.c.bytes) / 1e6

	events := make([]xmlkit.Event, 1024)
	parse := make([]time.Duration, probeReps)
	for i := range parse {
		t := time.Now()
		for _, p := range b.c.plays {
			sp := xmlkit.NewStreamParser(bytes.NewReader(p.xml), xmlkit.ParseOptions{})
			for {
				_, err := sp.ReadBatch(events)
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("parse probe: %w", err)
				}
			}
		}
		parse[i] = time.Since(t)
	}
	b.probes["xmlkit.parse_mb_s"] = metric{mb / quantile(parse, 0.5).Seconds(), "MB/s"}

	ser := make([]time.Duration, probeReps)
	for i := range ser {
		t := time.Now()
		for _, tr := range b.trees {
			if err := xmlkit.Serialize(io.Discard, tr); err != nil {
				return fmt.Errorf("serialize probe: %w", err)
			}
		}
		ser[i] = time.Since(t)
	}
	b.probes["xmlkit.serialize_mb_s"] = metric{mb / quantile(ser, 0.5).Seconds(), "MB/s"}
	b.trees = nil

	dev, err := pagedev.OpenFile(storePath, storePageSize)
	if err != nil {
		return fmt.Errorf("page probe: %w", err)
	}
	rng := rand.New(rand.NewSource(b.seed))
	buf := make([]byte, storePageSize)
	n := int64(dev.NumPages())
	reads := make([]time.Duration, probePageReads)
	for i := range reads {
		t := time.Now()
		err = dev.Read(pagedev.PageNo(rng.Int63n(n)), buf)
		reads[i] = time.Since(t)
		if err != nil {
			dev.Close()
			return fmt.Errorf("page probe read: %w", err)
		}
	}
	writes := make([]time.Duration, probePageWrites)
	for i := range writes {
		p := pagedev.PageNo(rng.Int63n(n))
		if err := dev.Read(p, buf); err != nil {
			dev.Close()
			return fmt.Errorf("page probe read: %w", err)
		}
		t := time.Now()
		err = dev.Write(p, buf)
		writes[i] = time.Since(t)
		if err != nil {
			dev.Close()
			return fmt.Errorf("page probe write: %w", err)
		}
	}
	if err := dev.Close(); err != nil {
		return fmt.Errorf("page probe: %w", err)
	}
	b.probes["pagedev.read_us_p50"] = metric{us(quantile(reads, 0.5)), "us"}
	b.probes["pagedev.write_us_p50"] = metric{us(quantile(writes, 0.5)), "us"}

	logPath := filepath.Join(b.dir, "probe-wal")
	st, err := wal.OpenFileStorage(logPath)
	if err != nil {
		return fmt.Errorf("log probe: %w", err)
	}
	rec := make([]byte, 4096)
	syncs := make([]time.Duration, probeLogSyncs)
	for i := range syncs {
		t := time.Now()
		_, err = st.WriteAt(rec, int64(i*len(rec)))
		if err == nil {
			err = st.Sync()
		}
		syncs[i] = time.Since(t)
		if err != nil {
			st.Close()
			return fmt.Errorf("log probe: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("log probe: %w", err)
	}
	// Timed commits skip the fsync (see bench.open), so the log's
	// fsync cost is this probe's.
	b.probes["wal.fsync_us_p50"] = metric{us(quantile(syncs, 0.5)), "us"}
	b.probes["wal.fsync_us_p90"] = metric{us(quantile(syncs, 0.9)), "us"}
	return os.Remove(logPath)
}
