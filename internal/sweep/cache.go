package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// The disk cache stores one JSON file per completed job under
// <dir>/v1/<build>/<sha256-of-key>.json. The file embeds the full key,
// so a hit is verified against the key text, not just the hash, and a
// SHA-256 of its metrics, so a value that rotted into another number
// is not one either.
//
// Invalidation rule: a key is the job's cell line at its seed plus
// build=<SHA-256 of the running executable>. The cell line is all the
// spec decides; the binary holds every constant, algorithm and
// dependency that turns it into numbers. A rebuilt binary that differs
// in any byte misses on every entry, and an identical rebuild of the
// same tree hits on all of them. The directory holds one build at a
// time: opening the cache removes every other build's entries (and
// those of the older flat v1/ layout), which could never hit again.
// It is always safe to delete.

// A cache is one Run's view of the result store: its directory and
// the build hash every key carries. The zero cache stores nothing.
type cache struct {
	dir, build string
}

// buildHash is the SHA-256 of the running executable, read once per
// process and only by a Run with a cache directory. It is a variable
// so tests can substitute build identities.
var buildHash = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

// openCache returns the cache rooted at dir, or the zero cache for an
// empty dir, after removing what other builds left under v1/. It fails
// rather than key entries on less than the whole build: a partial key
// would serve another build's numbers.
func openCache(dir string) (cache, error) {
	if dir == "" {
		return cache{}, nil
	}
	build, err := buildHash()
	if err != nil {
		return cache{}, fmt.Errorf("sweep: cache: cannot hash the running build (%w); run without the cache (-no-cache)", err)
	}
	root := filepath.Join(dir, "v1")
	stale, _ := os.ReadDir(root) // absent: nothing to remove
	for _, e := range stale {
		if e.Name() != build {
			if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
				return cache{}, fmt.Errorf("sweep: cache: %w", err)
			}
		}
	}
	return cache{dir: dir, build: build}, nil
}

// cacheEntry is the on-disk layout of one cached job result.
type cacheEntry struct {
	Key     string        `json:"key"`
	Metrics []MetricValue `json:"metrics"`
	// Sum is metricsSum(Metrics), in hex.
	Sum string `json:"sum"`
}

// metricsSum is the SHA-256 of metrics in a canonical form: each name
// and the exact bits of its value, in order.
func metricsSum(metrics []MetricValue) string {
	h := sha256.New()
	for _, m := range metrics {
		fmt.Fprintf(h, "%q %016x\n", m.Name, math.Float64bits(m.Value))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// load returns the cached metrics for a job, or ok=false on any
// miss — absent file, unreadable JSON, key mismatch, or metrics that do
// not match their checksum (an entry written before entries carried
// one included). A corrupt entry is treated as a miss, never an error:
// the job just re-runs. The bad file itself is deleted on the spot,
// because it can never become a hit again — its hash is the job key's,
// so a key mismatch means the entry is lying about its identity, and
// unparseable JSON or a checksum mismatch means a torn or bit-rotted
// write that the atomic-rename writer would not have produced. Leaving
// it would re-fail every sweep.
func (c cache) load(j job) ([]MetricValue, bool) {
	if c.dir == "" {
		return nil, false
	}
	key := j.key(c.build)
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false // absent (the common miss): nothing to clean
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.Metrics == nil || e.Sum != metricsSum(e.Metrics) {
		os.Remove(path)
		return nil, false
	}
	return e.Metrics, true
}

// store writes a job's metrics, creating the directory as needed.
// The write goes through a unique temp file and a rename, so readers
// never see a partial entry even with concurrent sweeps.
func (c cache) store(j job, metrics []MetricValue) error {
	if c.dir == "" {
		return nil
	}
	key := j.key(c.build)
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: cache: %w", err)
	}
	data, err := json.MarshalIndent(cacheEntry{Key: key, Metrics: metrics, Sum: metricsSum(metrics)}, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: cache: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %v, %v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache: %w", err)
	}
	return nil
}

// path addresses a rendered key: its SHA-256, under v1/<build>/.
func (c cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, "v1", c.build, hex.EncodeToString(sum[:])+".json")
}
