package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// The disk cache stores one JSON file per completed job under
// <dir>/v1/<sha256-of-key>.json. The file embeds the full canonical
// key, so a hit is verified against the key text, not just the hash,
// and a SHA-256 of its metrics, so a value that rotted into another
// number is not one either.
//
// Cache-invalidation rule: a job's key folds in (1) the cell config —
// experiment, cc, policy, trace, seed, durations; (2) the canonical
// tuning fingerprints of the congestion control and steering policy
// (cc.Configured / steering Canonical methods — bump their "/vN" tags
// for behavior changes their fields don't capture); (3) the cellSchema
// tag; and (4) the build's module version/VCS revision when stamped.
// Simulator changes outside those fingerprints are NOT detected in
// unstamped dev builds: delete the cache directory (or pass
// -no-cache) after such changes. The directory is always safe to
// delete; every cell can be recomputed.

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

// cacheLoad returns the cached metrics for a job, or ok=false on any
// miss — absent file, unreadable JSON, key mismatch, or metrics that do
// not match their checksum (an entry written before entries carried
// one included). A corrupt entry is treated as a miss, never an error:
// the job just re-runs. The bad file itself is deleted on the spot,
// because it can never become a hit again — its hash is the job key's,
// so a key mismatch means the entry is lying about its identity, and
// unparseable JSON or a checksum mismatch means a torn or bit-rotted
// write that the atomic-rename writer would not have produced. Leaving
// it would re-fail every sweep.
func cacheLoad(dir string, j job) ([]MetricValue, bool) {
	if dir == "" {
		return nil, false
	}
	key := j.key()
	path := cacheKeyPath(dir, key)
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

// cacheStore writes a job's metrics, creating the directory as needed.
// The write goes through a unique temp file and a rename, so readers
// never see a partial entry even with concurrent sweeps.
func cacheStore(dir string, j job, metrics []MetricValue) error {
	if dir == "" {
		return nil
	}
	key := j.key()
	path := cacheKeyPath(dir, key)
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

func cachePath(dir string, j job) string {
	return cacheKeyPath(dir, j.key())
}

// cacheKeyPath addresses an already-rendered key, so load/store build
// the key exactly once per lookup.
func cacheKeyPath(dir, key string) string {
	return filepath.Join(dir, "v1", hashKey(key)+".json")
}
