package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geogossip/internal/engine"
	"geogossip/internal/netstore"
)

// runWithStore runs smallSpec serially with an optional store, returning
// the results, the JSONL sink bytes, and the net stats.
func runWithStore(t *testing.T, store *netstore.Store) ([]TaskResult, []byte, NetBuildStats) {
	t.Helper()
	var sink bytes.Buffer
	var stats NetBuildStats
	results, err := Run(context.Background(), smallSpec(), Options{
		Workers:  1,
		Sink:     NewJSONL(&sink),
		NetStats: &stats,
		NetStore: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, sink.Bytes(), stats
}

// The snapshot store is invisible to results: a cold run (build +
// persist), a warm run (every network loaded), and a run over a
// corrupted store (detect + rebuild) all produce byte-identical JSONL
// sinks and identical TaskResults to a storeless run.
func TestRunNetStoreBitIdentity(t *testing.T) {
	refResults, refSink, refStats := runWithStore(t, nil)
	if refStats.Loads != 0 || refStats.StoreMisses != 0 || refStats.StoreBytes != 0 {
		t.Fatalf("storeless run reports store traffic: %+v", refStats)
	}

	dir := t.TempDir()
	open := func() *netstore.Store {
		st, err := netstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Cold: every distinct connected network misses, builds, persists.
	coldResults, coldSink, coldStats := runWithStore(t, open())
	if !reflect.DeepEqual(coldResults, refResults) {
		t.Fatal("cold store run: results differ from storeless run")
	}
	if !bytes.Equal(coldSink, refSink) {
		t.Fatal("cold store run: JSONL sink differs from storeless run")
	}
	if coldStats.Loads != 0 || coldStats.StoreMisses == 0 || coldStats.StoreBytes <= 0 {
		t.Fatalf("cold stats: %+v", coldStats)
	}
	if coldStats.Networks != refStats.Networks || coldStats.Nodes != refStats.Nodes ||
		coldStats.GraphBytes != refStats.GraphBytes || coldStats.HierBytes != refStats.HierBytes {
		t.Fatalf("cold network stats differ: %+v vs %+v", coldStats, refStats)
	}

	// Warm: every network loads, zero builds, and the loaded networks
	// drive bit-identical runs.
	warmResults, warmSink, warmStats := runWithStore(t, open())
	if !reflect.DeepEqual(warmResults, refResults) {
		t.Fatal("warm store run: results differ from storeless run")
	}
	if !bytes.Equal(warmSink, refSink) {
		t.Fatal("warm store run: JSONL sink differs from storeless run")
	}
	if warmStats.StoreMisses != 0 || warmStats.Loads != warmStats.Networks || warmStats.Loads == 0 {
		t.Fatalf("warm stats: %+v", warmStats)
	}
	if warmStats.GraphBytes != refStats.GraphBytes || warmStats.HierBytes != refStats.HierBytes {
		t.Fatalf("warm footprints differ: %+v vs %+v", warmStats, refStats)
	}

	// Corrupted store: flip a byte in every entry; the run detects each,
	// rebuilds, and still reproduces the reference bytes.
	entries, err := filepath.Glob(filepath.Join(dir, "*.ggsnap"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/3] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrResults, corrSink, corrStats := runWithStore(t, open())
	if !reflect.DeepEqual(corrResults, refResults) {
		t.Fatal("corrupted store run: results differ from storeless run")
	}
	if !bytes.Equal(corrSink, refSink) {
		t.Fatal("corrupted store run: JSONL sink differs from storeless run")
	}
	if corrStats.Loads != 0 || corrStats.StoreMisses == 0 {
		t.Fatalf("corrupted stats: %+v", corrStats)
	}

	// And the rebuild re-persisted clean entries: a final run loads again.
	_, finalSink, finalStats := runWithStore(t, open())
	if finalStats.StoreMisses != 0 || finalStats.Loads == 0 || !bytes.Equal(finalSink, refSink) {
		t.Fatalf("post-corruption warm run: %+v", finalStats)
	}
}

// Disconnected instances never enter the store: the seed-retry loop must
// walk the same attempt sequence on warm runs as on cold ones.
func TestNetStoreSkipsDisconnectedInstances(t *testing.T) {
	// A sparse radius at small n leaves some placements disconnected, so
	// the retry loop actually engages.
	spec := Spec{
		Algorithms:       []string{engine.Boyd},
		Ns:               []int{64},
		Seeds:            6,
		TargetErr:        5e-2,
		RadiusMultiplier: 1.1,
	}
	dir := t.TempDir()
	run := func() []TaskResult {
		st, err := netstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		results, err := Run(context.Background(), spec, Options{Workers: 1, NetStore: st})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	ref, warm := run(), run()
	if !reflect.DeepEqual(ref, warm) {
		t.Fatal("warm run differs on a grid with disconnected placements")
	}
	// Every persisted entry must decode to a connected network.
	entries, err := filepath.Glob(filepath.Join(dir, "*.ggsnap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range entries {
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		g, _, _, err := netstore.Decode(fh, 1)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !g.IsConnected() {
			t.Fatalf("%s holds a disconnected network", filepath.Base(path))
		}
	}
}

// The executor face (distributed workers) shares the same store
// semantics: two executors over one directory, second one builds nothing.
func TestExecutorNetStore(t *testing.T) {
	dir := t.TempDir()
	tasks := smallSpec().Expand()
	run := func() ([]TaskResult, NetBuildStats) {
		st, err := netstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		exec := NewExecutor(1, 1, st)
		var out []TaskResult
		for _, task := range tasks {
			r, _ := exec.Execute(0, task)
			out = append(out, r)
		}
		return out, exec.NetStats()
	}
	coldResults, coldStats := run()
	warmResults, warmStats := run()
	if !reflect.DeepEqual(coldResults, warmResults) {
		t.Fatal("executor store runs differ")
	}
	if coldStats.Loads != 0 || coldStats.StoreMisses == 0 {
		t.Fatalf("cold executor stats: %+v", coldStats)
	}
	if warmStats.StoreMisses != 0 || warmStats.Loads != warmStats.Networks {
		t.Fatalf("warm executor stats: %+v", warmStats)
	}
}
