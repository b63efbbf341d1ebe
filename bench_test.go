// Macro-benchmarks: one per regenerated table/figure (DESIGN.md §2). Each
// runs the corresponding experiment at full scale and prints the same
// rows the report files contain, so
//
//	go test -bench=. -benchmem
//
// regenerates every artifact of the reproduction. Micro-benchmarks for
// the substrate primitives follow at the end.
package geogossip

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/core"
	"geogossip/internal/experiments"
	"geogossip/internal/geo"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/kernel"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
)

var benchPrinted sync.Map

// benchExperiment runs one experiment per iteration, printing its report
// once and failing the benchmark if a shape check fails.
func benchExperiment(b *testing.B, id string, run func(experiments.Config) (*experiments.Report, error)) {
	b.Helper()
	cfg := experiments.Config{Quick: testing.Short()}
	for i := 0; i < b.N; i++ {
		rep, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := benchPrinted.LoadOrStore(id, true); !done {
			fmt.Println()
			if err := rep.Write(os.Stdout); err != nil {
				b.Fatal(err)
			}
		}
		if !rep.OK() {
			b.Fatalf("%s: shape checks failed (see printed report)", id)
		}
	}
}

func BenchmarkTable1Scaling(b *testing.B) { benchExperiment(b, "E1", experiments.RunE1Scaling) }
func BenchmarkFigure1Lemma1(b *testing.B) { benchExperiment(b, "E2", experiments.RunE2Lemma1) }
func BenchmarkFigure2Tail(b *testing.B)   { benchExperiment(b, "E3", experiments.RunE3Tail) }
func BenchmarkFigure3Lemma2(b *testing.B) { benchExperiment(b, "E4", experiments.RunE4Lemma2) }
func BenchmarkFigure4Connectivity(b *testing.B) {
	benchExperiment(b, "E5", experiments.RunE5Connectivity)
}
func BenchmarkFigure5Routing(b *testing.B)   { benchExperiment(b, "E6", experiments.RunE6Routing) }
func BenchmarkFigure6Rejection(b *testing.B) { benchExperiment(b, "E7", experiments.RunE7Rejection) }
func BenchmarkTable2Occupancy(b *testing.B)  { benchExperiment(b, "E8", experiments.RunE8Occupancy) }
func BenchmarkFigure7EpsScaling(b *testing.B) {
	benchExperiment(b, "E9", experiments.RunE9EpsScaling)
}
func BenchmarkTable3Hierarchy(b *testing.B) { benchExperiment(b, "E10", experiments.RunE10Hierarchy) }
func BenchmarkFigure8Stability(b *testing.B) {
	benchExperiment(b, "E11", experiments.RunE11Stability)
}
func BenchmarkTable4Ablation(b *testing.B) { benchExperiment(b, "E12", experiments.RunE12Ablation) }
func BenchmarkTable5Control(b *testing.B)  { benchExperiment(b, "E13", experiments.RunE13Control) }
func BenchmarkFigure9Convergence(b *testing.B) {
	benchExperiment(b, "E14", experiments.RunE14Convergence)
}
func BenchmarkFigure10EpsSchedule(b *testing.B) {
	benchExperiment(b, "E15", experiments.RunE15EpsSchedule)
}
func BenchmarkTable6Mixing(b *testing.B) {
	benchExperiment(b, "E16", experiments.RunE16Mixing)
}

// --- sweep-engine benchmarks ----------------------------------------------

// benchSweepGrid pushes a small comparison grid (3 algorithms × 2 sizes ×
// 4 seeds, 24 tasks) through the public sweep API at a fixed worker count; the
// 1-worker and NumCPU variants together track the engine's parallel
// speedup across the bench trajectory.
func benchSweepGrid(b *testing.B, workers int) {
	spec := SweepSpec{
		Algorithms: []string{"boyd", "geographic", "affine-hierarchical"},
		Ns:         []int{256, 512},
		Seeds:      4,
		TargetErr:  5e-2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Sweep(context.Background(), spec, WithSweepWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Err != "" {
				b.Fatalf("task %d: %s", r.TaskID, r.Err)
			}
		}
	}
}

func BenchmarkSweepGrid1Worker(b *testing.B) { benchSweepGrid(b, 1) }

func BenchmarkSweepGridNumCPU(b *testing.B) { benchSweepGrid(b, runtime.NumCPU()) }

// BenchmarkSweepGrid is the end-to-end sweep benchmark of the bench
// trajectory (BENCH_routing.json): all five algorithms × 2 sizes × 2
// seeds at the default worker count, exercising the shared per-network
// route caches. The reported route-hits/op metric tracks how much
// routing work the grid pooled.
func BenchmarkSweepGrid(b *testing.B) {
	spec := SweepSpec{
		Algorithms: []string{"boyd", "geographic", "push-sum", "affine-hierarchical", "affine-async"},
		Ns:         []int{256, 512},
		Seeds:      2,
		TargetErr:  5e-2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Sweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Err != "" {
				b.Fatalf("task %d: %s", r.TaskID, r.Err)
			}
		}
		if i == 0 {
			b.ReportMetric(100*rep.RouteCache.RouteHitRate(), "route-hit-%")
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := graph.Generate(n, 1.5, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkGraphBuild4096(b *testing.B) {
	pts := graph.UniformPoints(4096, rng.New(1))
	radius := graph.ConnectivityRadius(4096, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Build(pts, radius); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyRoute4096(b *testing.B) {
	g := benchGraph(b, 4096)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := int32(r.IntN(g.N()))
		dst := int32(r.IntN(g.N()))
		routing.GreedyToNode(g, src, dst, routing.RecoveryBFS)
	}
}

func BenchmarkHierarchyBuild65536(b *testing.B) {
	pts := graph.UniformPoints(65536, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hier.Build(pts, hier.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelStep(b *testing.B) {
	r := rng.New(4)
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	sys, err := kernel.NewSystem(vals, kernel.UniformAlphas(256, r))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(r)
	}
}

func BenchmarkBoydTick2048(b *testing.B) {
	g := benchGraph(b, 2048)
	x := make([]float64, g.N())
	r := rng.New(5)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ResetTimer()
	// One benchmark iteration = one full bounded run amortized: use ticks
	// as the unit by running MaxTicks = b.N once.
	res, err := gossip.RunBoyd(g, x, gossip.Options{
		RunEnv: sim.RunEnv{
			Stop: sim.StopRule{MaxTicks: uint64(b.N)},
		},
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}

// benchBoydMedium measures the per-tick cost of one engine under a
// given radio fault model, so the channel abstraction's overhead —
// Perfect vs Bernoulli vs Gilbert–Elliott — is visible side by side.
func benchBoydMedium(b *testing.B, faults channel.Spec) {
	g := benchGraph(b, 2048)
	x := make([]float64, g.N())
	r := rng.New(6)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ResetTimer()
	if _, err := gossip.RunBoyd(g, x, gossip.Options{
		RunEnv: sim.RunEnv{
			Stop:   sim.StopRule{MaxTicks: uint64(b.N)},
			Faults: faults,
		},
	}, r); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBoydChannelPerfect(b *testing.B) { benchBoydMedium(b, channel.Spec{}) }

func BenchmarkBoydChannelBernoulli(b *testing.B) {
	benchBoydMedium(b, channel.Spec{Loss: channel.LossBernoulli, LossRate: 0.2})
}

func BenchmarkBoydChannelGilbertElliott(b *testing.B) {
	benchBoydMedium(b, channel.Spec{
		Loss: channel.LossGilbertElliott,
		GE:   channel.GEParams{PGoodToBad: 0.025, PBadToGood: 0.1, LossGood: 0.01, LossBad: 0.95},
	})
}

func BenchmarkVoronoiAreas2048(b *testing.B) {
	g := benchGraph(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.VoronoiAreas()
	}
}

func BenchmarkAffineRecursive2048(b *testing.B) {
	g := benchGraph(b, 2048)
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(6)
	base := make([]float64, g.N())
	for i := range base {
		base[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := append([]float64(nil), base...)
		res, err := core.RunRecursive(g, h, x, core.RecursiveOptions{RunEnv: sim.RunEnv{Stop: sim.StopRule{TargetErr: 1e-2}}}, rng.New(7))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Transmissions), "transmissions")
			b.ReportMetric(float64(res.FarExchanges), "far-exchanges")
		}
	}
}

// BenchmarkAsyncLargeLeaf4096 is the routing-dominated engine run
// BENCH_routing.json tracks: large leaves (the paper's polylog-occupancy
// regime) and short rounds make the async engine spend its time flooding
// leaf squares and routing rep↔child control packets, so wall-clock
// follows the routing core directly. The route/flood caches took it from
// 56.5ms to 18.8ms per run (3.0×) with bit-identical transmissions.
func BenchmarkAsyncLargeLeaf4096(b *testing.B) {
	g := benchGraph(b, 4096)
	h, err := hier.Build(g.Points(), hier.Config{LeafTarget: 256})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(8)
	base := make([]float64, g.N())
	for i := range base {
		base[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := append([]float64(nil), base...)
		res, err := core.RunAsync(g, h, x, core.AsyncOptions{
			RunEnv: sim.RunEnv{
				Stop: sim.StopRule{TargetErr: 1e-3, MaxTicks: 500_000},
			},
			LeafTicks: 8,
		}, rng.New(9))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Transmissions), "transmissions")
		}
	}
}

// BenchmarkAsyncRun2048 measures the async engine at its default
// parameters, where per-tick protocol work (near gossip, clock, error
// tracking) shares the profile with routing.
func BenchmarkAsyncRun2048(b *testing.B) {
	g := benchGraph(b, 2048)
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(8)
	base := make([]float64, g.N())
	for i := range base {
		base[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := append([]float64(nil), base...)
		res, err := core.RunAsync(g, h, x, core.AsyncOptions{
			RunEnv: sim.RunEnv{
				Stop: sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
			},
		}, rng.New(9))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Transmissions), "transmissions")
		}
	}
}

func BenchmarkFloodRegion(b *testing.B) {
	g := benchGraph(b, 4096)
	region := geo.NewRect(0.25, 0.25, 0.5, 0.5)
	src := int32(-1)
	for i := int32(0); int(i) < g.N(); i++ {
		if region.Contains(g.Point(i)) {
			src = i
			break
		}
	}
	if src < 0 {
		b.Fatal("no node in region")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.Flood(g, src, region)
	}
}
