package sweep

import (
	"context"
	"testing"

	"geogossip/internal/engine"
	"geogossip/internal/routing"
)

// TestRouteStatsAggregated verifies the run aggregates the shared
// per-network route caches: tasks of the same (n, seed) cell run on one
// cache, so the hierarchy algorithms' repeated rep↔rep routes and leaf
// floods must register hits, and the counters must reach the caller.
func TestRouteStatsAggregated(t *testing.T) {
	spec := Spec{
		Algorithms: []string{engine.Affine, engine.Async, engine.Geographic},
		Ns:         []int{256},
		Seeds:      2,
		TargetErr:  5e-2,
	}
	var stats routing.CacheStats
	results, err := Run(context.Background(), spec, Options{Workers: 2, RouteStats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("task %d: %s", r.TaskID, r.Error)
		}
	}
	if stats.RouteMisses == 0 {
		t.Error("no route misses recorded: tasks did not touch the shared caches")
	}
	if stats.RouteHits == 0 {
		t.Error("no route hits recorded: hierarchy engines should re-route the same rep pairs")
	}
	if stats.FloodMisses == 0 || stats.FloodHits == 0 {
		t.Errorf("flood stats %d hits / %d misses: async leaf floods should hit the cache",
			stats.FloodHits, stats.FloodMisses)
	}
}
