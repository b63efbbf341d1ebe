package geogossip

import (
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"geogossip/internal/rng"
)

func TestWithBuildWorkersByteIdentity(t *testing.T) {
	ref, err := NewNetwork(600, WithSeed(21), WithBuildWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.NumCPU(), 0} {
		nw, err := NewNetwork(600, WithSeed(21), WithBuildWorkers(w))
		if err != nil {
			t.Fatalf("build-workers=%d: %v", w, err)
		}
		if nw.Edges() != ref.Edges() || nw.HierarchyLevels() != ref.HierarchyLevels() {
			t.Fatalf("build-workers=%d: different network (edges %d vs %d)", w, nw.Edges(), ref.Edges())
		}
		a, b := ref.Positions(), nw.Positions()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("build-workers=%d: node %d placed differently", w, i)
			}
		}
		if nw.Footprint() != ref.Footprint() {
			t.Fatalf("build-workers=%d: footprint differs: %+v vs %+v", w, nw.Footprint(), ref.Footprint())
		}
	}
}

func TestNetworkFootprint(t *testing.T) {
	nw, err := NewNetwork(512, WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	f := nw.Footprint()
	if f.PointsBytes != 16*nw.N() {
		t.Fatalf("points footprint %d, want %d", f.PointsBytes, 16*nw.N())
	}
	if f.AdjacencyBytes == 0 || f.IndexBytes == 0 || f.HierarchyBytes == 0 {
		t.Fatalf("zero footprint component: %+v", f)
	}
	if f.VoronoiBytes != 0 {
		t.Fatalf("Voronoi areas should be lazy, got %d bytes before any geographic run", f.VoronoiBytes)
	}
	want := f.PointsBytes + f.AdjacencyBytes + f.IndexBytes + f.VoronoiBytes + f.HierarchyBytes
	if f.Total() != want {
		t.Fatalf("Total %d != component sum %d", f.Total(), want)
	}
	perNode := float64(f.Total()) / float64(nw.N())
	if perNode < 20 || perNode > 4096 {
		t.Fatalf("bytes/node %v out of plausible range", perNode)
	}
}

func TestWithParallelRuns(t *testing.T) {
	nw, err := NewNetwork(400, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo Algorithm
		// Boyd's pairwise averages preserve the mean exactly; push-sum
		// writes back per-node estimates, which only approximate it at
		// the target accuracy.
		meanTol float64
	}{
		{Boyd(WithTargetError(1e-2), WithParallel(4, 2)), 1e-6},
		{PushSum(WithTargetError(1e-2), WithParallel(4, 2)), 5e-2},
	} {
		algo := tc.algo
		values := make([]float64, nw.N())
		for i, p := range nw.Positions() {
			values[i] = 10*p[0] + p[1]
		}
		want := Mean(values)
		res, err := algo.Run(nw, values)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge under WithParallel: %+v", algo.Name(), res)
		}
		if math.Abs(Mean(values)-want) > tc.meanTol {
			t.Fatalf("%s: mean drifted %v -> %v", algo.Name(), want, Mean(values))
		}
	}
}

func TestWithParallelRejections(t *testing.T) {
	nw, err := NewNetwork(128, WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, nw.N())
	cases := []struct {
		name string
		algo Algorithm
	}{
		{"geographic", Geographic(WithParallel(0, 0))},
		{"affine-hierarchical", AffineHierarchical(WithParallel(0, 0))},
		{"async without recovery", AffineAsync(WithParallel(0, 0))},
		{"boyd with loss", Boyd(WithParallel(0, 0), WithLossRate(0.1))},
	}
	for _, tc := range cases {
		if _, err := tc.algo.Run(nw, values); err == nil {
			t.Fatalf("%s accepted WithParallel", tc.name)
		}
	}
}

// TestWithParallelErrorsNameOptions pins the facade's WithParallel
// errors: each names the public options that conflict, never an engine's
// internal fields, and the combinations an engine ignores still run.
func TestWithParallelErrorsNameOptions(t *testing.T) {
	nw, err := NewNetwork(128, WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	par := WithParallel(2, 1)
	cases := []struct {
		name string
		algo Algorithm
		want []string // substrings of the error; nil means the run succeeds
	}{
		{"geographic", Geographic(par), []string{"geographic"}},
		{"affine-hierarchical", AffineHierarchical(par), []string{"affine-hierarchical"}},
		{"async without recovery", AffineAsync(par), []string{"WithRecovery"}},
		{"boyd with recovery", Boyd(par, WithRecovery()), []string{"WithRecovery"}},
		{"boyd with trace", Boyd(par, WithTraceJSONL(io.Discard, 0)), []string{"WithTraceJSONL"}},
		{"push-sum with delay", PushSum(par, WithDelay("fixed/1")), []string{"WithDelay"}},
		{"push-sum with arq", PushSum(par, WithARQ(2, 1, 2)), []string{"WithARQ"}},
		{"boyd with loss", Boyd(par, WithLossRate(0.1)), []string{"WithLossRate"}},
		{"push-sum with churn", PushSum(par, WithChurn(1000, 100)), []string{"WithChurn"}},
		{"push-sum with recovery", PushSum(par, WithRecovery(), WithTargetError(0.1)), nil},
		{"async with recovery", AffineAsync(par, WithRecovery(), WithTargetError(0.1)), nil},
	}
	for _, tc := range cases {
		values := make([]float64, nw.N())
		for i := range values {
			values[i] = float64(i % 7)
		}
		_, err := tc.algo.Run(nw, values)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted WithParallel", tc.name)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "geogossip: WithParallel") {
			t.Errorf("%s: error %q does not name WithParallel", tc.name, msg)
		}
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: error %q does not name %s", tc.name, msg, w)
			}
		}
		rest := strings.TrimPrefix(msg, "geogossip: ")
		for _, internal := range []string{"Options", "Resync", "Recover ", "Tracer", "gossip:", "core:"} {
			if strings.Contains(rest, internal) {
				t.Errorf("%s: error %q names internal %q", tc.name, msg, internal)
			}
		}
	}
}

// TestScaleSmokeBoyd100k is the CI-sized slice of the million-node
// recipe (README "Scale"): parallel construction of a 10^5-node
// network plus a parallel boyd run on a gaussian-style field,
// asserting convergence and the memory envelope. Skipped under -short;
// the full n=10^6 figures live in BENCH_engines.json.
func TestScaleSmokeBoyd100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-node construct+run smoke")
	}
	if raceDetectorEnabled {
		t.Skip("run without -race: the race detector makes this ~10x slower (CI runs it in its own step)")
	}
	const n = 100_000
	nw, err := NewNetwork(n, WithSeed(26), WithBuildWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(nw.Footprint().Total()) / float64(n)
	if perNode > 2048 {
		t.Fatalf("network footprint %v bytes/node blows the scale budget", perNode)
	}
	values := make([]float64, n)
	r := rng.New(27)
	for i := range values {
		values[i] = r.NormFloat64()
	}
	want := Mean(values)
	res, err := Boyd(WithTargetError(1e-2), WithParallel(0, 0)).Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("boyd did not converge at n=%d: %+v", n, res)
	}
	if math.Abs(Mean(values)-want) > 1e-6 {
		t.Fatalf("mean drifted %v -> %v", want, Mean(values))
	}
}

func TestWithParallelAsyncHeal(t *testing.T) {
	nw, err := NewNetwork(200, WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, nw.N())
	for i, p := range nw.Positions() {
		values[i] = 10*p[0] + p[1]
	}
	algo := AffineAsync(WithTargetError(1e-2), WithRecovery(),
		WithChurn(60000, 60000), WithParallel(4, 2),
		WithMaxTicks(2_000_000))
	res, err := algo.Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resyncs == 0 {
		t.Fatalf("parallel heal performed no resyncs under reviving churn: %+v", res)
	}
}
