// Sharded sweep: partition a Figure 14-style grid into independently
// runnable shards, execute them as separate units of work over a shared
// result store, and merge the outputs back into a result that is
// byte-identical to a single-process run — including recovering from a
// shard that "crashes" partway.
//
// The shards here run sequentially in one process to keep the example
// deterministic and self-contained; each Run call is exactly what a
// separate process (or machine sharing the directory) would execute. The
// cmd/repro flags -shards/-shard-index/-merge drive the same API across
// real processes.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"readretry"
)

func main() {
	cfg := readretry.QuickSweepConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{
		{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6},
	}
	cfg.Requests = 600
	variants := readretry.Figure14Variants()

	dir, err := os.MkdirTemp("", "sharded_sweep")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	shardsDir := filepath.Join(dir, "shards")

	// The shared per-cell store every shard fills as it goes: in real
	// deployments a disk cache on a shared filesystem.
	cache, err := readretry.NewDiskSweepCache(filepath.Join(dir, "cells"))
	if err != nil {
		log.Fatal(err)
	}
	cfg.Cache = cache

	// 1. Plan: a deterministic round-robin partition of the canonical
	// cell-index space, serialized as self-describing JSON manifests.
	const n = 3
	plan, err := readretry.ShardPlan(cfg, variants, n)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.WriteManifests(shardsDir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d cells over %d shards (config %.12s…)\n", plan.Total, n, plan.ConfigHash)
	for _, m := range plan.Shards {
		fmt.Printf("  shard %d/%d: %d cells %v\n", m.Index+1, m.Count, len(m.Cells), m.Cells)
	}

	// 2. Run shards 0 and 1 to completion; "crash" shard 2 after its
	// first cell by canceling the context.
	for _, m := range plan.Shards[:2] {
		if _, err := readretry.RunShard(context.Background(), cfg, variants, m, shardsDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shard %d/%d complete\n", m.Index+1, m.Count)
	}
	ctx, cancel := context.WithCancel(context.Background())
	crashed := cfg
	crashed.Parallelism = 1
	crashed.Progress = func(done, total int) {
		if done == 1 {
			cancel() // simulate the process dying mid-shard
		}
	}
	if _, err := readretry.RunShard(ctx, crashed, variants, plan.Shards[2], shardsDir); err != nil {
		fmt.Printf("shard 3/%d interrupted: %v\n", n, err)
	}

	// 3. Merging now fails — with the exact missing cells, not a silently
	// partial grid. (The crashed shard's finished cell is salvaged from
	// the shared cache, so only the truly lost cells are listed.)
	_, err = readretry.MergeShards(cfg, variants, shardsDir, cache)
	var missing *readretry.SweepMissingCellsError
	if !errors.As(err, &missing) {
		log.Fatalf("expected a missing-cells error, got %v", err)
	}
	fmt.Printf("merge before resume: %d cells missing (e.g. %s)\n",
		len(missing.Missing), missing.Labels[0])

	// 4. Resume: re-run the crashed shard over the same store. Cells it
	// already persisted are cache hits; only the lost ones simulate.
	if _, err := readretry.RunShard(context.Background(), cfg, variants, plan.Shards[2], shardsDir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 3/%d resumed and completed\n", n)

	// 5. Merge and verify bit-identity against a fresh unsharded run.
	merged, err := readretry.MergeShards(cfg, variants, shardsDir, cache)
	if err != nil {
		log.Fatal(err)
	}
	plain := cfg
	plain.Cache = nil
	unsharded, err := readretry.RunSweep(context.Background(), plain, variants)
	if err != nil {
		log.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := unsharded.WriteCSV(&a); err != nil {
		log.Fatal(err)
	}
	if err := merged.WriteCSV(&b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged CSV identical to unsharded run: %v (%d bytes)\n",
		bytes.Equal(a.Bytes(), b.Bytes()), b.Len())

	avg, max := merged.Reduction("PnAR2", "Baseline", false)
	fmt.Printf("PnAR2 reduction from the merged grid: avg %.1f%%, max %.1f%%\n", avg*100, max*100)
}
