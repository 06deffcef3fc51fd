package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"perfiso/internal/experiments"
)

// ManifestVersion is bumped whenever the manifest encoding changes
// incompatibly; Merge refuses partials built against another version.
const ManifestVersion = 1

// Manifest is the deterministic enumeration of a filtered run: every
// logical cell in registration order, without executing anything.
type Manifest struct {
	Version int                   `json:"version"`
	Scale   string                `json:"scale"`
	Filter  string                `json:"filter,omitempty"`
	Cells   []experiments.CellRef `json:"cells"`
	// Hash is hex-encoded SHA-256 over the canonical JSON encoding of
	// the manifest with Hash itself blanked — a pure function of the
	// registry contents, scale and filter. It fingerprints the cell
	// enumeration (names, keys, costs, sweep shapes), not simulation
	// internals: run shards and merge from the same commit — CI's
	// drift gate catches anything the hash cannot.
	Hash string `json:"hash"`
}

// planRun compiles pattern (empty selects everything), enumerates the
// selection once and builds its manifest. Zero matches fail loudly
// with the list of valid names.
func planRun(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string) (*experiments.Plan, Manifest, error) {
	var filter *regexp.Regexp
	if pattern != "" {
		var err error
		if filter, err = regexp.Compile(pattern); err != nil {
			return nil, Manifest{}, fmt.Errorf("shard: bad filter: %w", err)
		}
	}
	p, err := reg.Plan(spec, filter)
	if err != nil {
		return nil, Manifest{}, err
	}
	m := Manifest{Version: ManifestVersion, Scale: spec.Name, Filter: pattern, Cells: p.Refs}
	m.Hash = m.hash()
	return p, m, nil
}

// Build enumerates the filtered run as a manifest. Cell construction
// is side-effect free — no simulation runs.
func Build(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string) (Manifest, error) {
	_, m, err := planRun(reg, spec, pattern)
	return m, err
}

func (m Manifest) hash() string {
	n := m
	n.Hash = ""
	blob, err := json.Marshal(n)
	if err != nil {
		panic(err) // plain structs of strings and floats cannot fail
	}
	sum := sha256.Sum256(blob)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// WriteManifest writes a manifest as indented JSON, atomically,
// creating parent directories.
func WriteManifest(path string, m Manifest) error {
	return experiments.WriteJSONFile(path, m)
}

// ReadManifest loads a manifest artifact and verifies its integrity:
// the version must be current, the embedded hash must match a
// recomputation over the loaded cells (a hand-edited or truncated file
// fails loudly), and the cells must group into valid units.
func ReadManifest(path string) (Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, fmt.Errorf("shard: %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("shard: %s is manifest version %d, this binary speaks %d", path, m.Version, ManifestVersion)
	}
	if got := m.hash(); got != m.Hash {
		return Manifest{}, fmt.Errorf("shard: %s: embedded hash %s does not match recomputed %s (file edited or corrupted)", path, m.Hash, got)
	}
	if _, err := m.Units(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Units groups the manifest's cells into executable units, in
// first-occurrence order (experiments.GroupUnits).
func (m Manifest) Units() ([]experiments.Unit, error) {
	return experiments.GroupUnits(m.Cells)
}
