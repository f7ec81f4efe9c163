package main

// Provenance: what was measured, where and how, recorded with every
// result so a number can be traced to the code and host it came from.

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
)

type provenance struct {
	Commit       string            `json:"commit"`
	SourceDigest string            `json:"source_sha256"`
	GoVersion    string            `json:"go_version"`
	NumCPU       int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	TempFS       string            `json:"temp_fs"`
	Workload     string            `json:"workload"`
	FlushPolicy  string            `json:"flush_policy"`
	Clients      int               `json:"clients"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	CorpusDocs   int               `json:"corpus_docs"`
	CorpusBytes  int64             `json:"corpus_bytes"`
	CorpusNodes  int               `json:"corpus_nodes"`
	PoolBytes    int               `json:"pool_bytes"`
	PageSize     int               `json:"page_size"`
	Options      map[string]string `json:"options"`
}

// flushPolicies states each workload's durability and checkpoint
// policy.
var flushPolicies = map[string]string{
	"ingest": "WAL with NoSync: each document import logs its pages without a per-commit fsync; Flush (checkpoint) after each pass",
	"browse": "WAL with NoSync: probe imports, deletes and edits log every change without a per-commit fsync; a Flush (checkpoint) at the start and end of each import probe block",
	"edit":   "WAL with NoSync: each edit logs its change without a per-commit fsync; checkpoints when the log-size trigger fires and at the start and end of each import probe block",
}

var workloadClients = map[string]int{"ingest": 1, "browse": 1, "edit": 2}

func workloadPool(w string) int {
	if w == "edit" {
		return editPool
	}
	return 2 << 20
}

func (b *bench) provenance() provenance {
	return provenance{
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		TempFS:       b.tempFS,
		Workload:     b.workload,
		FlushPolicy:  flushPolicies[b.workload],
		Clients:      workloadClients[b.workload],
		Seed:         b.seed,
		Seconds:      b.seconds,
		Trace:        b.trace,
		CorpusDocs:   len(b.c.plays),
		CorpusBytes:  b.c.bytes,
		CorpusNodes:  b.c.nodes,
		PoolBytes:    workloadPool(b.workload),
		PageSize:     storePageSize,
		Options:      map[string]string{"WAL": "true", "NoSync": "true", "PathIndex": "true", "Tracing": map[bool]string{true: "traced segments only", false: "false"}[b.trace]},
	}
}

// commit is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout; see source_sha256)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping hidden and underscore directories (build and
// scratch output).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strings.ToUpper(hex.EncodeToString([]byte{byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}))
}
