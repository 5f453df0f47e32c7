package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
)

// MissingCellsError reports a merge attempted over an incomplete shard
// set: no completion record and no cache entry covered the listed cells.
// Merge never normalizes a partial grid — normalization is defined over
// complete (workload, condition) stripes, and silently filling the gaps
// with zeros would poison every statistic derived from the result — so the
// exact gap is surfaced instead, for the operator to re-run the shards
// that own it.
type MissingCellsError struct {
	ConfigHash string
	Total      int
	// Missing holds the absent canonical cell indices, ascending; Labels
	// names each one the way the figures do ("stg_0 2K/6mo PnAR2"),
	// parallel to Missing; Keys holds each cell's content address — the
	// exact cellcache entry the operator can look for in the shared store —
	// parallel again.
	Missing []int
	Labels  []string
	Keys    []string
	// MatchedRecords and ForeignRecords count the completion records the
	// scan consumed and skipped (different sweep: config-hash or format
	// mismatch). Foreign records are normal when sweeps share a directory
	// (fig14 beside fig15) — but foreign records with zero matches usually
	// means the merge was invoked with different flags than the shards ran
	// under: the shards did complete, just not for this configuration, so
	// Error surfaces the mismatch for that case only.
	MatchedRecords int
	ForeignRecords int
}

// Error names every absent cell — canonical index, figure label, and cache
// key — so the operator can locate (or rule out) each one in the shared
// store without re-deriving anything. Deliberately untruncated: a merge
// failure is the moment the exact gap matters, and eliding "… and N more"
// used to hide precisely the cells being hunted.
func (e *MissingCellsError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: merge incomplete: %d of %d cells missing", len(e.Missing), e.Total)
	if e.ForeignRecords > 0 && e.MatchedRecords == 0 {
		fmt.Fprintf(&b, " (%d completion record(s) present belong to a different configuration than %.12s… — another sweep sharing the directory, or shards run with different flags than this merge)",
			e.ForeignRecords, e.ConfigHash)
	}
	b.WriteString(":")
	for i, label := range e.Labels {
		fmt.Fprintf(&b, "\n  cell %d: %s", e.Missing[i], label)
		if i < len(e.Keys) && e.Keys[i] != "" {
			fmt.Fprintf(&b, " (cache key %s)", e.Keys[i])
		}
	}
	return b.String()
}

// Merge reassembles a sweep from shard outputs. Cells are gathered from
// two sources, records first: every completion record in dir whose config
// hash matches the configuration contributes its measurements, and any
// cells still uncovered are looked up in cache (pass the shards' shared
// cellcache tier) — which is how a plan whose shards all ran to completion
// merges from records alone, and how partially completed shards' finished
// cells are salvaged without re-running them. Either source may be absent
// (empty dir, nil cache).
//
// If any cell of the grid remains uncovered, Merge fails with a
// *MissingCellsError naming every one of them. Otherwise the cells are
// re-sequenced into canonical order, the engine's post-hoc normalization
// is applied once over the merged set, and the returned Result is
// bit-identical — reflect.DeepEqual, and byte-identical through WriteCSV —
// to what an unsharded RunSweep of the same configuration returns.
func Merge(cfg experiments.Config, variants []experiments.Variant, dir string, cache cellcache.Cache) (*experiments.Result, error) {
	g, err := experiments.NewGrid(cfg, variants)
	if err != nil {
		return nil, err
	}
	hash, err := experiments.ConfigHash(cfg, variants)
	if err != nil {
		return nil, err
	}
	total := g.Total()
	got := make([]cellcache.Measurement, total)
	have := make([]bool, total)

	matched, foreign := 0, 0
	if dir != "" {
		matched, foreign, err = mergeRecords(dir, hash, total, got, have)
		if err != nil {
			return nil, err
		}
	}
	if cache != nil {
		for idx := 0; idx < total; idx++ {
			if have[idx] {
				continue
			}
			wl, cond, v := g.CellAt(idx)
			key, err := experiments.CellKey(cfg, wl, cond, v)
			if err != nil {
				return nil, err
			}
			if m, ok := cache.Get(key); ok {
				got[idx], have[idx] = m, true
			}
		}
	}

	var missing []int
	for idx := 0; idx < total; idx++ {
		if !have[idx] {
			missing = append(missing, idx)
		}
	}
	if len(missing) > 0 {
		e := &MissingCellsError{
			ConfigHash: hash, Total: total, Missing: missing,
			MatchedRecords: matched, ForeignRecords: foreign,
		}
		for _, idx := range missing {
			e.Labels = append(e.Labels, g.Label(idx))
			// ConfigHash above already proved the device template hashes,
			// so per-cell key derivation cannot fail here; a defensive
			// empty key just omits that cell's address from the message.
			wl, cond, v := g.CellAt(idx)
			key, kerr := experiments.CellKey(cfg, wl, cond, v)
			if kerr != nil {
				key = ""
			}
			e.Keys = append(e.Keys, key)
		}
		return nil, e
	}
	return assemble(g, variants, got)
}

// assemble builds the final normalized Result from a fully covered
// measurement vector in canonical order — the last step of Merge, and why
// its output is bit-identical to an unsharded run: the cells are decoded
// from the grid, the raw measurements attached, and the engine's post-hoc
// normalization applied exactly once over the whole set.
func assemble(g *experiments.Grid, variants []experiments.Variant, got []cellcache.Measurement) (*experiments.Result, error) {
	if len(got) != g.Total() {
		return nil, fmt.Errorf("shard: assembling %d measurements over a %d-cell grid", len(got), g.Total())
	}
	res := &experiments.Result{Cells: make([]experiments.Cell, g.Total())}
	for _, v := range variants {
		res.Configs = append(res.Configs, v.Name)
	}
	for idx := range got {
		wl, cond, v := g.CellAt(idx)
		m := got[idx]
		res.Cells[idx] = experiments.Cell{
			Workload: wl, Cond: cond, Config: v.Name,
			Mean: m.Mean, MeanRead: m.MeanRead,
			P99Read: m.P99Read, RetrySteps: m.RetrySteps,
			Retry: m.Retry,
		}
	}
	if err := experiments.NormalizeCells(res.Cells, variants); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeRecords scans dir for completion records of the sweep identified by
// hash and fills got/have from them, returning how many parseable records
// it consumed (matched) and how many it skipped as foreign (different
// config hash, format version, or grid size — fig14 and fig15
// legitimately share a directory, but foreign records with zero matches
// usually mean mismatched flags, so the caller surfaces that case).
// Unreadable or torn files degrade to "no contribution" in the same
// spirit as the cellcache disk tier, since every genuinely covered cell
// is re-checked against the grid and anything still absent is reported
// exactly by the caller.
func mergeRecords(dir, hash string, total int, got []cellcache.Measurement, have []bool) (matched, foreign int, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, 0, nil // no shard has completed yet; the cache may still cover cells
	}
	if err != nil {
		return 0, 0, fmt.Errorf("shard: scanning %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if !ent.Type().IsRegular() || !strings.HasSuffix(ent.Name(), ".record.json") {
			continue
		}
		names = append(names, ent.Name())
	}
	sort.Strings(names) // deterministic scan order
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // raced a cleanup; the file genuinely contributes nothing
			}
			// A record that exists but cannot be read (permissions, I/O) is
			// not "missing cells, re-run the shards" — surface the real
			// problem instead of steering the operator into re-simulating.
			return matched, foreign, fmt.Errorf("shard: reading record %s: %w", name, err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			continue // not a record (atomic writes make torn files impossible; this is foreign debris)
		}
		if rec.Manifest.ConfigHash != hash || rec.Manifest.Version > ManifestVersion ||
			rec.Manifest.TotalCells != total {
			foreign++
			continue
		}
		matched++
		for _, cr := range rec.Results {
			if cr.Index < 0 || cr.Index >= total {
				return matched, foreign, fmt.Errorf("shard: record %s holds cell index %d outside grid [0, %d)", name, cr.Index, total)
			}
			got[cr.Index], have[cr.Index] = cr.Measurement, true
		}
	}
	return matched, foreign, nil
}
