// Profile cache: characterizing a workload on the device model is the one
// expensive step every figure and table derives from, so profiles are
// memoized on disk. Entries are keyed by (workload abbreviation, device
// configuration fingerprint, schema version): changing the device config,
// the metric vector layout, or any workload definition must bump
// CacheSchemaVersion so stale entries miss instead of misread.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/units"
	"repro/internal/workloads"
)

// CacheSchemaVersion identifies the on-disk entry layout and the catalog
// generation that produced it. Bump on any change to Profile, the
// profiler metric set, or workload definitions.
const CacheSchemaVersion = 1

// ProfileCache is an on-disk store of workload profiles. One entry is one
// JSON file; writes go through a temp file plus rename, so concurrent
// studies sharing a cache directory never observe partial entries.
type ProfileCache struct {
	dir string
}

// DefaultCacheDir returns the per-user cactus profile cache directory.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "cactus", "profiles"), nil
}

// OpenCache opens the profile cache rooted at dir, creating it if needed.
func OpenCache(dir string) (*ProfileCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty profile cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: opening profile cache: %w", err)
	}
	return &ProfileCache{dir: dir}, nil
}

// Dir returns the cache root directory.
func (c *ProfileCache) Dir() string { return c.dir }

// cachedKernel serializes one KernelChar. Metrics round-trips exactly:
// encoding/json emits float64 at full round-trip precision, so reloaded
// vectors are bit-identical and downstream output stays byte-identical.
type cachedKernel struct {
	Name        string          `json:"name"`
	Invocations int             `json:"invocations"`
	TimeShare   float64         `json:"time_share"`
	InstCount   float64         `json:"inst_count"`
	Metrics     profiler.Vector `json:"metrics"`
}

type cachedProfile struct {
	Schema         int            `json:"schema"`
	Abbr           string         `json:"abbr"`
	Device         string         `json:"device"`
	TotalTime      float64        `json:"total_time"`
	TotalWarpInsts uint64         `json:"total_warp_insts"`
	AggII          float64        `json:"agg_ii"`
	AggGIPS        float64        `json:"agg_gips"`
	Kernels        []cachedKernel `json:"kernels"`
}

// Fingerprint returns the profile-cache fingerprint of a device
// configuration: a short hex digest over every model parameter plus the
// cache schema version. Two configurations share a fingerprint only if
// they would produce interchangeable profiles, so the fingerprint is the
// device half of every profile key — the on-disk cache entry name and the
// server's compute-once cell key both derive from it.
func Fingerprint(cfg gpu.DeviceConfig) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%+v", CacheSchemaVersion, cfg)))
	return hex.EncodeToString(sum[:8])
}

// path returns the entry file for (abbr, cfg). The whole device
// configuration is fingerprinted, not just its name, so tweaking any model
// parameter invalidates the entry.
func (c *ProfileCache) path(abbr string, cfg gpu.DeviceConfig) string {
	name := fmt.Sprintf("%s-%s-v%d.json",
		sanitizeKey(abbr), Fingerprint(cfg), CacheSchemaVersion)
	return filepath.Join(c.dir, name)
}

// sanitizeKey keeps abbreviations filesystem-safe.
func sanitizeKey(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

// CacheOutcome classifies one profile-cache probe; telemetry counters and
// the CLI's -v progress lines attribute each workload to one of these.
type CacheOutcome int

const (
	// CacheDisabled means no cache was configured for the probe.
	CacheDisabled CacheOutcome = iota
	// CacheHit means the entry existed and loaded cleanly.
	CacheHit
	// CacheMiss means the entry was absent.
	CacheMiss
	// CacheCorrupt means the entry existed but was unreadable, malformed,
	// or mismatched — functionally a miss (the caller re-simulates and
	// overwrites), but reported distinctly so corruption is visible
	// instead of silently swallowed.
	CacheCorrupt
)

// String returns the outcome label used in progress lines and trace args.
func (o CacheOutcome) String() string {
	switch o {
	case CacheDisabled:
		return "disabled"
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Load returns w's cached profile for cfg, or ok=false on a miss. Any
// unreadable, corrupt, or mismatched entry is treated as a miss: the
// caller re-simulates and overwrites it. Probe additionally distinguishes
// absent from corrupt entries.
func (c *ProfileCache) Load(w workloads.Workload, cfg gpu.DeviceConfig) (*Profile, bool) {
	p, outcome := c.Probe(w, cfg)
	return p, outcome == CacheHit
}

// Probe returns w's cached profile for cfg together with the probe outcome
// (CacheHit, CacheMiss, or CacheCorrupt — never CacheDisabled).
func (c *ProfileCache) Probe(w workloads.Workload, cfg gpu.DeviceConfig) (*Profile, CacheOutcome) {
	data, err := os.ReadFile(c.path(w.Abbr(), cfg))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, CacheMiss
		}
		return nil, CacheCorrupt
	}
	var e cachedProfile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, CacheCorrupt
	}
	if e.Schema != CacheSchemaVersion || e.Abbr != w.Abbr() ||
		e.Device != cfg.Name || len(e.Kernels) == 0 || e.TotalTime <= 0 {
		return nil, CacheCorrupt
	}
	p := &Profile{
		Workload:       w,
		TotalTime:      units.Seconds(e.TotalTime),
		TotalWarpInsts: units.WarpInsts(e.TotalWarpInsts),
		AggII:          e.AggII,
		AggGIPS:        e.AggGIPS,
		Kernels:        make([]KernelChar, len(e.Kernels)),
	}
	for i, k := range e.Kernels {
		p.Kernels[i] = KernelChar{
			Name:        k.Name,
			Invocations: k.Invocations,
			TimeShare:   units.Fraction(k.TimeShare),
			Metrics:     k.Metrics,
			instCount:   k.InstCount,
		}
	}
	return p, CacheHit
}

// Store writes p's cache entry for cfg atomically.
func (c *ProfileCache) Store(p *Profile, cfg gpu.DeviceConfig) error {
	e := cachedProfile{
		Schema:         CacheSchemaVersion,
		Abbr:           p.Abbr(),
		Device:         cfg.Name,
		TotalTime:      p.TotalTime.Float(),
		TotalWarpInsts: uint64(p.TotalWarpInsts),
		AggII:          p.AggII,
		AggGIPS:        p.AggGIPS,
		Kernels:        make([]cachedKernel, len(p.Kernels)),
	}
	for i, k := range p.Kernels {
		e.Kernels[i] = cachedKernel{
			Name:        k.Name,
			Invocations: k.Invocations,
			TimeShare:   k.TimeShare.Clamp01(),
			InstCount:   k.instCount,
			Metrics:     k.Metrics,
		}
	}
	data, err := json.MarshalIndent(&e, "", "\t")
	if err != nil {
		return err
	}
	final := c.path(p.Abbr(), cfg)
	tmp, err := os.CreateTemp(c.dir, "."+filepath.Base(final)+".*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
