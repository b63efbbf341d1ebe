package gossip

import (
	"math"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// benchGraph builds the shared benchmark instance.
func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := graph.Generate(n, 1.8, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchValues(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// steadyOptions disables curve sampling inside the measured window so
// the benches report pure per-tick protocol cost (BENCH_engines.json
// tracks them with allocs — the steady-state contract is 0 allocs/op).
func steadyOptions() Options {
	return Options{
		RunEnv: sim.RunEnv{
			Stop:        sim.StopRule{MaxTicks: math.MaxUint64 >> 1},
			RecordEvery: math.MaxUint64 >> 1,
		},
		State: NewRunState(),
	}
}

// BenchmarkBoydSteadyTick measures one warm boyd engine tick: clock
// draw, neighbour pick, delivery, pairwise average, error update.
func BenchmarkBoydSteadyTick(b *testing.B) {
	g := benchGraph(b, 2048)
	e, err := newBoydRun(g, benchValues(g.N(), 2), steadyOptions(), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// BenchmarkGeographicSteadyTick measures one warm geographic tick:
// rejection sampling with greedy routing, round-trip delivery, average.
func BenchmarkGeographicSteadyTick(b *testing.B) {
	g := benchGraph(b, 2048)
	opt := GeoOptions{Options: steadyOptions(), Sampling: SamplingRejection}
	e, err := newGeoRun(g, benchValues(g.N(), 4), opt, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// BenchmarkPushSumSteadyTick measures one warm push-sum tick: clock
// draw, neighbour pick, mass halving and push, two estimate updates.
func BenchmarkPushSumSteadyTick(b *testing.B) {
	g := benchGraph(b, 2048)
	e, err := newPushSumRun(g, benchValues(g.N(), 6), steadyOptions(), rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// Instrumented variants: the same steady ticks with a live metrics
// registry scope attached. BENCH_engines.json pairs these with the bare
// rows to bound the observability overhead (DESIGN.md §8: ≤5%, still
// 0 allocs/op — reporting is atomics on rare paths only).

func instrumentedSteadyOptions(engine string) Options {
	opt := steadyOptions()
	opt.Obs = obs.NewRegistry().Scope(engine)
	return opt
}

func BenchmarkBoydSteadyTickInstrumented(b *testing.B) {
	g := benchGraph(b, 2048)
	e, err := newBoydRun(g, benchValues(g.N(), 2), instrumentedSteadyOptions("boyd"), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

func BenchmarkGeographicSteadyTickInstrumented(b *testing.B) {
	g := benchGraph(b, 2048)
	opt := GeoOptions{Options: instrumentedSteadyOptions("geographic"), Sampling: SamplingRejection}
	e, err := newGeoRun(g, benchValues(g.N(), 4), opt, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

func BenchmarkPushSumSteadyTickInstrumented(b *testing.B) {
	g := benchGraph(b, 2048)
	e, err := newPushSumRun(g, benchValues(g.N(), 6), instrumentedSteadyOptions("push-sum"), rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
