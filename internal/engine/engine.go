// Package engine is the one engine contract: a table from engine name to
// what the engine needs (a square hierarchy), how it honours intra-run
// parallelism, and how to run it over the shared sim.RunEnv. The facade
// constructors, the sweep, cmd/sweep and the experiments
// all dispatch through the table, so adding an engine is one new entry.
package engine

import (
	"geogossip/internal/core"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// Engine names, as the facade, the sweep's Algorithms axis and the CLIs
// spell them.
const (
	Boyd       = "boyd"
	Geographic = "geographic"
	PushSum    = "push-sum"
	Affine     = "affine-hierarchical"
	Async      = "affine-async"
)

// Knobs are the protocol parameters only some engines read; zero selects
// each engine's default.
type Knobs struct {
	// Beta scales the affine coefficient (affine engines; zero = 2/5).
	Beta float64
	// Sampling selects geographic partner sampling (zero = rejection).
	Sampling gossip.Sampling
	// Throttle and LeafTicks override the async engine's round-budget
	// model (see core.AsyncOptions).
	Throttle  float64
	LeafTicks int
}

// States bundles the reusable run states of both engine families, so a
// sweep worker threads one value through every task it executes.
type States struct {
	Gossip gossip.RunState
	Core   core.RunState
}

// Input is one engine invocation.
type Input struct {
	G *graph.Graph
	// H is the square hierarchy over G's points; read only by engines
	// with Hierarchy set.
	H *hier.Hierarchy
	// X holds the initial values and is mutated in place.
	X     []float64
	Env   sim.RunEnv
	Knobs Knobs
	// States holds the run states the engine resets and reuses; a
	// one-off run passes a fresh &States{}.
	States *States
	RNG    *rng.RNG
}

// Result is the shared run summary plus the affine engines' long-range
// exchange count (zero for the baselines).
type Result struct {
	*metrics.Result
	FarExchanges uint64
}

// Parallel states whether an engine honours RunEnv.Parallel and what the
// rest of the environment must look like when it does.
type Parallel struct {
	// Supported reports whether the engine runs Parallel at all.
	Supported bool
	// PerfectMedium, NoRecover and NoTracer are the requirements of the
	// sharded tick schedule (DESIGN.md §9): loss, churn and transport draw
	// from shared per-run streams, recovery reads evolving neighbour
	// state, and event order is schedule-dependent.
	PerfectMedium, NoRecover, NoTracer bool
	// NeedsRecover is the async engine's requirement: it shards its
	// recovery sweep, so without Recover there is nothing to shard.
	NeedsRecover bool
}

// Engine is one table entry.
type Engine struct {
	Name string
	// Hierarchy reports whether Run reads Input.H.
	Hierarchy bool
	Parallel  Parallel
	Run       func(Input) (Result, error)
}

var table = []Engine{
	{Name: Boyd, Parallel: Parallel{Supported: true, PerfectMedium: true, NoRecover: true, NoTracer: true}, Run: func(in Input) (Result, error) {
		res, err := gossip.RunBoyd(in.G, in.X, gossip.Options{RunEnv: in.Env, State: &in.States.Gossip}, in.RNG)
		return Result{Result: res}, err
	}},
	{Name: Geographic, Run: func(in Input) (Result, error) {
		res, err := gossip.RunGeographic(in.G, in.X, gossip.GeoOptions{
			Options:  gossip.Options{RunEnv: in.Env, State: &in.States.Gossip},
			Sampling: in.Knobs.Sampling,
		}, in.RNG)
		return Result{Result: res}, err
	}},
	// Push-sum's mass bookkeeping already survives churn: it has no
	// recovery protocol, so Recover is dropped rather than tripping the
	// parallel gate over a setting the engine never reads.
	{Name: PushSum, Parallel: Parallel{Supported: true, PerfectMedium: true, NoTracer: true}, Run: func(in Input) (Result, error) {
		env := in.Env
		env.Recover = false
		res, err := gossip.RunPushSum(in.G, in.X, gossip.Options{RunEnv: env, State: &in.States.Gossip}, in.RNG)
		return Result{Result: res}, err
	}},
	{Name: Affine, Hierarchy: true, Run: func(in Input) (Result, error) {
		res, err := core.RunRecursive(in.G, in.H, in.X, core.RecursiveOptions{
			RunEnv: in.Env,
			Beta:   in.Knobs.Beta,
			State:  &in.States.Core,
		}, in.RNG)
		if err != nil {
			return Result{}, err
		}
		return Result{res.Result, res.FarExchanges}, nil
	}},
	{Name: Async, Hierarchy: true, Parallel: Parallel{Supported: true, NeedsRecover: true}, Run: func(in Input) (Result, error) {
		res, err := core.RunAsync(in.G, in.H, in.X, core.AsyncOptions{
			RunEnv:    in.Env,
			Beta:      in.Knobs.Beta,
			Throttle:  in.Knobs.Throttle,
			LeafTicks: in.Knobs.LeafTicks,
			State:     &in.States.Core,
		}, in.RNG)
		if err != nil {
			return Result{}, err
		}
		return Result{res.Result, res.FarExchanges}, nil
	}},
}

// Lookup returns the named engine.
func Lookup(name string) (*Engine, bool) {
	for i := range table {
		if table[i].Name == name {
			return &table[i], true
		}
	}
	return nil, false
}

// Names lists every engine name in table order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.Name
	}
	return out
}
