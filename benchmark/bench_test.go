package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geogossip"
)

// smallSpec is a reduced grid: small networks need a larger radius to come
// out connected.
func smallSpec() geogossip.SweepSpec {
	return geogossip.SweepSpec{
		Algorithms:       []string{"boyd", "push-sum", "geographic", "affine-hierarchical"},
		Ns:               []int{128, 192},
		Seeds:            2,
		BaseSeed:         7,
		TargetErr:        0.05,
		RadiusMultiplier: 2.0,
	}
}

// The distributed pass's sink is byte-identical to a local one-worker
// Sweep of the same grid.
func TestDistributedSinkMatchesLocalSweep(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := smallSpec()

	var local bytes.Buffer
	if _, err := geogossip.Sweep(ctx, spec, geogossip.WithSweepWorkers(1), geogossip.WithSweepJSONL(&local)); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "netstore")
	if _, err := runPass(ctx, workload{spec: spec}.setupSpec(), store, setupSlots, false, dir, ""); err != nil {
		t.Fatal(err)
	}
	p, err := runPass(ctx, spec, store, 1, true, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.sink, local.Bytes()) {
		t.Fatalf("distributed sink (%d bytes) differs from the local one-worker sink (%d bytes)", len(p.sink), local.Len())
	}
	if got := len(p.spans); got != spec.TaskCount() {
		t.Errorf("recorded %d task spans, want %d", got, spec.TaskCount())
	}
}

// The setup pass stores every network the timed pass uses, so the timed
// pass loads them all and builds none.
func TestSetupFillsStore(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []geogossip.SweepSpec{
		smallSpec(),
		{Algorithms: []string{"affine-async"}, Ns: []int{128}, Seeds: 1, BaseSeed: 7, TargetErr: 0.05,
			RadiusMultiplier: 2.0, Hierarchies: []string{"flat"}},
	} {
		dir := t.TempDir()
		store := filepath.Join(dir, "netstore")
		setup, err := runPass(ctx, workload{spec: spec}.setupSpec(), store, setupSlots, false, dir, "")
		if err != nil {
			t.Fatal(err)
		}
		if v := check(setup.results()); v.failed() != 0 || len(v.violations) != 0 {
			t.Fatalf("setup tasks failed: %+v", v)
		}
		for _, r := range setup.results() {
			if r.Transmissions != 0 {
				t.Fatalf("setup task %d transmitted %d times, want zero work", r.TaskID, r.Transmissions)
			}
		}
		p, err := runPass(ctx, spec, store, 1, false, dir, "")
		if err != nil {
			t.Fatal(err)
		}
		c := counterMetrics(p)
		if c["netstore.builds"] != 0 || c["netstore.loads"] != c["netstore.networks"] {
			t.Fatalf("%v: timed pass built %v and loaded %v of %v networks", spec.Algorithms, c["netstore.builds"], c["netstore.loads"], c["netstore.networks"])
		}
	}
}

// A task forced to miss its target raises fail_ratio without breaking the
// gate's invariants.
func TestMissedTargetRaisesFailRatio(t *testing.T) {
	ctx := context.Background()
	spec := smallSpec()
	rep, err := geogossip.Sweep(ctx, spec, geogossip.WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	base := check(rep.Results)
	if base.failRatio() != 0 || len(base.violations) != 0 {
		t.Fatalf("baseline grid: fail_ratio %v, violations %v", base.failRatio(), base.violations)
	}

	spec.Algorithms = []string{"boyd"}
	spec.MaxTicks = 10
	rep, err = geogossip.Sweep(ctx, spec, geogossip.WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	starved := check(rep.Results)
	if starved.failRatio() != 1 || len(starved.misses) != spec.TaskCount() {
		t.Fatalf("boyd capped at 10 ticks: fail_ratio %v, misses %v", starved.failRatio(), starved.misses)
	}
	if len(starved.violations) != 0 {
		t.Fatalf("violations on honest non-converged results: %v", starved.violations)
	}

	lying := rep.Results[0]
	lying.Converged = true
	if v := check([]geogossip.SweepResult{lying}); v.aboveTarget != 1 || v.failRatio() != 1 {
		t.Fatalf("a converged claim above target: %+v", v)
	}
}

// The metric lists in code are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	if len(doc.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name, 1); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined in code", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("quartiles = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestMidTask(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		var ds []time.Duration
		for _, v := range vs {
			ds = append(ds, time.Duration(v)*time.Millisecond)
		}
		return ds
	}
	// Six tasks: the central fifth is the middle two, as in a median.
	if got := midTask(ms(6, 1, 5, 2, 4, 3)); math.Abs(got-0.0035) > 1e-12 {
		t.Fatalf("midTask of 1..6 ms = %v, want 0.0035", got)
	}
	// Ten tasks: ranks 5 and 6 of ten, not the outliers.
	if got := midTask(ms(1, 2, 3, 4, 10, 20, 100, 100, 100, 100)); math.Abs(got-0.015) > 1e-12 {
		t.Fatalf("midTask = %v, want 0.015", got)
	}
}

func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 200; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	v, pct := tail(ds)
	if v != 190*time.Millisecond || pct != 95 {
		t.Fatalf("tail of 1..200 ms = %v at p%v; want 190ms at p95 (ten samples beyond)", v, pct)
	}
	if v, pct := tail(ds[:50]); v != 50*time.Millisecond || pct != 100 {
		t.Fatalf("tail of 50 samples = %v at p%v; want the maximum", v, pct)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: geobench
Type: cpu
Duration: 1s, Total samples = 1.605s (7%)
-----------+-------------------------------------------------------
      20ms   math/rand/v2.(*PCG).Uint64
             geogossip/internal/rng.(*RNG).IntN (inline)
             geogossip/internal/core.(*engine).leafAverage
             geogossip/internal/sweep.executeWith
-----------+-------------------------------------------------------
      30ms   geogossip/internal/sweep/dist.(*coordinator).lease
             geogossip.SweepServe
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             runtime.newobject
-----------+-------------------------------------------------------
      35ms   geogossip/internal/sweep.executeWith
             geogossip/internal/sweep.(*Executor).Execute
-----------+-------------------------------------------------------
   1.5s      geogossip/internal/snap.Read
             geogossip/internal/netstore.(*Store).GetOrBuild
-----------+-------------------------------------------------------
`)
	p, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rng": 0.02, "dist": 0.03, "runtime": 0.01, "sweep": 0.035, "netstore": 1.5}
	for l, w := range want {
		if math.Abs(p.self[l]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, p.self[l], w)
		}
	}
	if len(p.self) != len(want) {
		t.Errorf("layers charged: %v", p.self)
	}
	// A frame counts every sample whose stack holds it, wherever it sits.
	for fn, w := range map[string]float64{
		"geogossip/internal/rng.(*RNG).IntN": 0.02,
		"geogossip.SweepServe":               0.03,
		"runtime.mallocgc":                   0.01,
		taskFrame:                            0.055,
	} {
		if math.Abs(p.inside[fn]-w) > 1e-9 {
			t.Errorf("inside %s = %v, want %v", fn, p.inside[fn], w)
		}
	}
}

// A second run of the same build must write the same sink.
func TestRememberDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests", "build-grid-1")
	a, b := [32]byte{1}, [32]byte{2}
	if err := rememberDigest(path, a); err != nil {
		t.Fatal(err)
	}
	if err := rememberDigest(path, a); err != nil {
		t.Fatalf("same digest again: %v", err)
	}
	if err := rememberDigest(path, b); err == nil {
		t.Fatal("a different digest for the same build, workload and seed was accepted")
	}
}
