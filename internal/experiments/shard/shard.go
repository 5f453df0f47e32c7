// Package shard turns one sweep into N independently runnable shards and
// merges their outputs back into a single result that is byte-identical to
// a single-process run — the distribution layer over the sweep engine's
// canonical cell indexing (experiments.Grid).
//
// The lifecycle has three phases:
//
//   - NewPlan partitions the canonical cell-index space round-robin into N
//     balanced shards (cell idx goes to shard idx mod N, so the expensive
//     high-PEC stripes at the end of each workload block spread evenly) and
//     describes each as a self-contained JSON Manifest: the sweep's config
//     hash, the cache-key schema, and the assigned cell indices.
//   - Run executes one shard's cells through the existing sweep machinery
//     (experiments.RunCells): the same worker pool, shared traces, and
//     per-cell cache, so a shard sharing a cellcache disk tier with others
//     persists every finished cell as it lands and resumes across crashes
//     for free. On completion it writes an atomic per-shard Record.
//   - Merge scans completion records (and, optionally, a shared cache) for
//     the full grid, fails with the exact list of missing cells if any are
//     absent, re-sequences the rest into canonical order, applies the
//     engine's post-hoc normalization once over the merged set, and returns
//     a Result indistinguishable — reflect.DeepEqual and CSV bytes — from
//     an unsharded RunSweep.
//
// Raw measurements are what travels between processes; normalization is
// deliberately deferred to the merge because a shard's cells never form
// complete (workload, condition) stripes under round-robin assignment.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
)

// ManifestVersion is the current manifest/record format version. Readers
// reject anything newer than they understand rather than guessing.
const ManifestVersion = 1

// Manifest is the self-describing unit of shard work: everything a process
// needs to check it is about to run (or merge) the same sweep the planner
// partitioned, plus the exact cells assigned to it. It serializes as JSON;
// the zero Index/Count shard of a 1-shard plan is a valid degenerate case
// covering the whole grid.
type Manifest struct {
	Version int `json:"version"`
	// ConfigHash fingerprints the full cell-index space
	// (experiments.ConfigHash); Run and Merge refuse manifests or records
	// whose hash does not match the configuration they were given.
	ConfigHash string `json:"config_hash"`
	// KeySchema is the cache-key schema the planning engine derived cell
	// addresses under (experiments.CacheKeySchema).
	KeySchema string `json:"key_schema"`
	// Index and Count locate this shard in the plan: 0 ≤ Index < Count.
	Index int `json:"shard_index"`
	Count int `json:"shard_count"`
	// TotalCells is the whole grid's size — the space Cells indexes into.
	TotalCells int `json:"total_cells"`
	// Cells are the canonical cell indices assigned to this shard,
	// ascending. Under the round-robin plan these are exactly
	// {Index, Index+Count, Index+2·Count, …} ∩ [0, TotalCells), but
	// consumers must trust the explicit list, not re-derive it, so other
	// partitioners stay possible.
	Cells []int `json:"cells"`
}

// name is the shard's file-name stem: the config-hash prefix keeps records
// of different sweeps (fig14 vs fig15, different -temps axes) disjoint in
// a shared directory.
func (m Manifest) name() string {
	hash := m.ConfigHash
	if len(hash) > 12 {
		hash = hash[:12]
	}
	return fmt.Sprintf("shard-%s-%04d-of-%04d", hash, m.Index, m.Count)
}

// ManifestFilename returns the file name WriteManifests uses for this
// shard ("shard-<hash12>-0002-of-0008.manifest.json").
func (m Manifest) ManifestFilename() string { return m.name() + ".manifest.json" }

// RecordFilename returns the completion record's file name.
func (m Manifest) RecordFilename() string { return m.name() + ".record.json" }

// validate checks the manifest's internal consistency against a grid.
func (m Manifest) validate(g *experiments.Grid) error {
	if m.Version > ManifestVersion {
		return fmt.Errorf("shard: manifest version %d is newer than this engine understands (%d)", m.Version, ManifestVersion)
	}
	if m.Count <= 0 || m.Index < 0 || m.Index >= m.Count {
		return fmt.Errorf("shard: manifest index %d of %d out of range", m.Index, m.Count)
	}
	if m.TotalCells != g.Total() {
		return fmt.Errorf("shard: manifest describes a %d-cell grid, configuration resolves to %d", m.TotalCells, g.Total())
	}
	prev := -1
	for _, idx := range m.Cells {
		if idx < 0 || idx >= g.Total() {
			return fmt.Errorf("shard: manifest cell index %d outside grid [0, %d)", idx, g.Total())
		}
		if idx <= prev {
			return fmt.Errorf("shard: manifest cell indices not strictly ascending at %d", idx)
		}
		prev = idx
	}
	return nil
}

// Plan is a full partition of one sweep into Count shards.
type Plan struct {
	ConfigHash string
	KeySchema  string
	Total      int
	Shards     []Manifest
}

// NewPlan partitions the sweep's canonical cell-index space into n
// round-robin shards: cell idx is assigned to shard idx mod n. The
// partition is deterministic, disjoint, and covering at every n ≥ 1, and
// balanced two ways at once — shard sizes differ by at most one cell, and
// because the canonical order visits conditions in configuration order
// (low PEC and short retention first, the cheap cells), striding by n
// spreads the expensive high-PEC / long-retention cells evenly instead of
// handing the last shard all of them. n larger than the grid simply leaves
// the excess shards empty, which run and merge like any other.
func NewPlan(cfg experiments.Config, variants []experiments.Variant, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", n)
	}
	g, err := experiments.NewGrid(cfg, variants)
	if err != nil {
		return nil, err
	}
	hash, err := experiments.ConfigHash(cfg, variants)
	if err != nil {
		return nil, err
	}
	p := &Plan{ConfigHash: hash, KeySchema: experiments.CacheKeySchema(), Total: g.Total()}
	for i := 0; i < n; i++ {
		m := Manifest{
			Version:    ManifestVersion,
			ConfigHash: hash,
			KeySchema:  p.KeySchema,
			Index:      i,
			Count:      n,
			TotalCells: g.Total(),
		}
		for idx := i; idx < g.Total(); idx += n {
			m.Cells = append(m.Cells, idx)
		}
		p.Shards = append(p.Shards, m)
	}
	return p, nil
}

// WriteManifests serializes every shard of the plan into dir (created if
// absent), one JSON file per shard, atomically. Run re-verifies each
// against its own configuration, so a stale manifest can never silently
// execute the wrong cells.
func (p *Plan) WriteManifests(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	for _, m := range p.Shards {
		if err := writeJSON(filepath.Join(dir, m.ManifestFilename()), m); err != nil {
			return err
		}
	}
	return nil
}

// ReadManifest loads one serialized shard manifest.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("shard: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("shard: parsing manifest %s: %w", path, err)
	}
	return m, nil
}

// writeJSON marshals v and publishes it through the sweep subsystems'
// shared atomic-write discipline (cellcache.WriteFileAtomic), so a reader
// — another shard process scanning for records, a merge racing a
// finishing shard — never observes a torn file.
func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding %s: %w", path, err)
	}
	if err := cellcache.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("shard: writing %s: %w", path, err)
	}
	return nil
}

// readJSON loads a JSON file into v.
func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// CellResult pairs one canonical cell index with its raw measurement and
// the content address it is (or would be) cached under.
type CellResult struct {
	Index       int                   `json:"index"`
	Key         string                `json:"key"`
	Measurement cellcache.Measurement `json:"measurement"`
}

// Record is a shard's completion record: the manifest it executed plus
// every assigned cell's raw measurement, in manifest order. A record's
// existence means the whole shard finished — partially completed shards
// leave only cache entries behind, which Merge can also consume.
type Record struct {
	Manifest Manifest     `json:"manifest"`
	Results  []CellResult `json:"results"`
}

// ReadRecord loads one serialized completion record.
func ReadRecord(path string) (*Record, error) {
	var r Record
	if err := readJSON(path, &r); err != nil {
		return nil, fmt.Errorf("shard: reading record %s: %w", path, err)
	}
	return &r, nil
}
