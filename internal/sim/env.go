package sim

import (
	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/trace"
)

// RunEnv is the run environment every engine shares. Each engine's
// options struct embeds it next to its own protocol knobs; the engines
// document how they read it.
type RunEnv struct {
	// Stop bundles the termination conditions.
	Stop StopRule
	// RecordEvery samples the convergence curve every RecordEvery
	// ticks; zero selects the engine's default.
	RecordEvery uint64
	// Faults selects the radio medium; the zero Spec is the perfect one.
	Faults channel.Spec
	// Routes optionally supplies a route/flood cache bound to the run's
	// graph (see routing.Cache). Routing is a pure function of the graph,
	// so the cache never changes results.
	Routes *routing.Cache
	// Recover switches on the engine's recovery protocol under churn.
	// Off by default: it changes the draw sequence, so historical churn
	// runs stay bit-identical without it.
	Recover bool
	// Parallel enables deterministic intra-run parallelism (DESIGN.md
	// §9); the zero value keeps every engine on its serial schedule.
	Parallel Parallel
	// Tracer, when non-nil, receives structured protocol events.
	Tracer trace.Tracer
	// Obs, when non-nil, receives metrics through the label-free fast
	// path (see obs.Scope). Nil costs nothing.
	Obs *obs.Scope
}

// BuildMedium validates env.Faults and builds the run's radio channel
// through a run state's channel pool, after resetting its transport event
// clock tl. Fault models bind to the network context: positions always,
// tl plus env's observability hooks for delay/arq wrappers, and only
// when the spec asks for them the hierarchy's representatives (h is nil
// for engines without one, so rep-targeted specs fail) and g's degree
// order.
func BuildMedium(pool *channel.Pool, tl *channel.Timeline, env RunEnv, g *graph.Graph, h *hier.Hierarchy, lossRNG, churnRNG *rng.RNG) (channel.Channel, error) {
	spec := env.Faults
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tl.Reset(spec.HasTransport())
	cenv := channel.Env{Points: g.Points(), Timeline: tl, Obs: env.Obs, Tracer: env.Tracer}
	if spec.TargetsReps() && h != nil {
		cenv.Reps = h.Reps()
	}
	if spec.TargetsHubs() {
		cenv.HubOrder = g.ByDegreeDesc()
	}
	return spec.BuildWith(pool, g.N(), cenv, lossRNG, churnRNG)
}
