package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"

	"perfiso/internal/experiments"
)

// ManifestVersion is bumped whenever the manifest encoding changes
// incompatibly. The hash covers it, so Merge refuses partials planned
// against another version as a manifest-hash mismatch.
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

// BuildPlan compiles pattern (empty selects everything), enumerates
// the selection once and returns the plan with its manifest, so a
// caller hashes and executes one enumeration. Zero matches fail loudly
// with the list of valid names.
func BuildPlan(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string) (*experiments.Plan, Manifest, error) {
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
	_, m, err := BuildPlan(reg, spec, pattern)
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

// Units groups the manifest's cells into executable units, in
// first-occurrence order (experiments.GroupUnits).
func (m Manifest) Units() ([]experiments.Unit, error) {
	return experiments.GroupUnits(m.Cells)
}
