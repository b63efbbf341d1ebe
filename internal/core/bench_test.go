package core

import (
	"math"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

func benchNetwork(b *testing.B, n int) (*graph.Graph, *hier.Hierarchy) {
	b.Helper()
	g, err := graph.Generate(n, 1.8, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return g, h
}

func benchValues(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// BenchmarkAsyncSteadyTick measures one warm async-engine tick (§4.2):
// clock draw, representative role steps, near exchange — routes and
// floods served by the warm routing cache. The steady-state contract is
// 0 allocs/op.
func BenchmarkAsyncSteadyTick(b *testing.B) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 2)
	if _, err := RunAsync(g, h, x, AsyncOptions{
		RunEnv: sim.RunEnv{
			RecordEvery: math.MaxUint64 >> 1,
			Stop:        sim.StopRule{MaxTicks: 200_000},
		},
		State: st,
	}, rng.New(3)); err != nil {
		b.Fatal(err)
	}
	e := &st.async
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// BenchmarkRecursiveFarExchange measures the recursive engine's
// steady-state work unit: one long-range affine exchange between sibling
// representatives, warm route round trip included.
func BenchmarkRecursiveFarExchange(b *testing.B) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 4)
	if _, err := RunRecursive(g, h, x, RecursiveOptions{
		RunEnv: sim.RunEnv{
			Stop:        sim.StopRule{TargetErr: 1e-2},
			RecordEvery: 1 << 40,
		},
		State: st,
	}, rng.New(5)); err != nil {
		b.Fatal(err)
	}
	e := &st.rec
	root := h.Root()
	m, _ := e.kidCount(root)
	if m < 2 {
		b.Fatal("root has fewer than two populated children")
	}
	ka, kb := e.kid(root, 0), e.kid(root, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.farExchange(ka, kb)
	}
}

// Instrumented variants: the same steady-state work units with a live
// metrics registry scope attached. BENCH_engines.json pairs these with
// the bare rows to bound the observability overhead (DESIGN.md §8:
// ≤5%, still 0 allocs/op).

func BenchmarkAsyncSteadyTickInstrumented(b *testing.B) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 2)
	if _, err := RunAsync(g, h, x, AsyncOptions{
		RunEnv: sim.RunEnv{
			RecordEvery: math.MaxUint64 >> 1,
			Stop:        sim.StopRule{MaxTicks: 200_000},
			Obs:         obs.NewRegistry().Scope("affine-async"),
		},
		State: st,
	}, rng.New(3)); err != nil {
		b.Fatal(err)
	}
	e := &st.async
	for i := 0; i < 1000; i++ {
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

func BenchmarkRecursiveFarExchangeInstrumented(b *testing.B) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 4)
	if _, err := RunRecursive(g, h, x, RecursiveOptions{
		RunEnv: sim.RunEnv{
			Stop:        sim.StopRule{TargetErr: 1e-2},
			RecordEvery: 1 << 40,
			Obs:         obs.NewRegistry().Scope("affine-hierarchical"),
		},
		State: st,
	}, rng.New(5)); err != nil {
		b.Fatal(err)
	}
	e := &st.rec
	root := h.Root()
	m, _ := e.kidCount(root)
	if m < 2 {
		b.Fatal("root has fewer than two populated children")
	}
	ka, kb := e.kid(root, 0), e.kid(root, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.farExchange(ka, kb)
	}
}
