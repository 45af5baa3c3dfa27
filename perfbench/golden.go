package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// goldenJSON holds the committed digests: table → workload seed → one
// digest per item slot. Regenerate with --write-golden (README.md).
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string][]string

// goldenSlots is each table's number of item slots per seed; items cycle
// through the slots, so every item of a run has a golden digest.
var goldenSlots = map[string]int{"characterize": charSeeds, "lot": lotCount, "service": serviceSpecs}

// loadGolden returns the digests of one table for a seed, nil when the
// file has none for it.
func loadGolden(table string, seed int64) ([]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g[table][strconv.FormatInt(seed, 10)], nil
}

// checker compares each item's digest with the golden one for its slot
// and with every earlier result for the same slot in this process, so a
// repeated item, a traced re-run and a cache replay must all agree.
type checker struct {
	golden []string

	mu   sync.Mutex
	seen map[int]string
	bad  []string
}

func newChecker(golden []string) *checker {
	return &checker{golden: golden, seen: map[int]string{}}
}

// check records slot's digest and reports whether it matched.
func (c *checker) check(slot int, got string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := true
	if c.golden != nil {
		if want := c.golden[slot%len(c.golden)]; got != want {
			c.bad = append(c.bad, fmt.Sprintf("slot %d: got %q, golden %q", slot, got, want))
			ok = false
		}
	}
	if prev, seen := c.seen[slot]; seen && prev != got {
		c.bad = append(c.bad, fmt.Sprintf("slot %d: got %q, earlier %q", slot, got, prev))
		ok = false
	}
	c.seen[slot] = got
	return ok
}

// fail records a failed correctness check that is not a digest.
func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad = append(c.bad, msg)
}

// failures returns every mismatch so far.
func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.bad...)
}

// digest returns the digest recorded for slot.
func (c *checker) digest(slot int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.seen[slot]
	return d, ok
}

// generateGolden runs every golden table's items for each seed, untimed,
// and writes the digests to path.
func generateGolden(path string, seeds []int64, scratch string, log io.Writer) error {
	g := goldenFile{}
	for _, wl := range workloads {
		if _, done := g[wl.golden]; done {
			continue
		}
		g[wl.golden] = map[string][]string{}
		for _, seed := range seeds {
			e := &env{seed: seed, check: newChecker(nil), scratch: scratch, log: log}
			inst, err := wl.setup(e)
			if err != nil {
				return err
			}
			slots := goldenSlots[wl.golden]
			_, err = inst.pass(passConfig{items: slots})
			if cerr := inst.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if f := e.check.failures(); len(f) > 0 {
				return fmt.Errorf("%s seed %d: %s", wl.name, seed, strings.Join(f, "; "))
			}
			digests := make([]string, slots)
			for i := range digests {
				d, ok := e.check.digest(i)
				if !ok {
					return fmt.Errorf("%s seed %d: slot %d produced no digest", wl.name, seed, i)
				}
				digests[i] = d
			}
			g[wl.golden][strconv.FormatInt(seed, 10)] = digests
			fmt.Fprintf(log, "golden: %s seed %d: %d digests\n", wl.golden, seed, slots)
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// provenance identifies the machine, toolchain and source of a result.
type provenance struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Trace        int     `json:"trace"`
	Seconds      float64 `json:"seconds"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
}

func newProvenance(workload string, seed int64, trace int, seconds float64) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, SourceSHA256: sourceDigest("."),
	}
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// dot-directories such as .bench_build), identifying the measured source
// when the checkout carries no version-control metadata.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
