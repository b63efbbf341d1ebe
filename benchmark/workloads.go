package main

import "geogossip"

// A workload is the sweep one timed pass runs. Its setup pass runs the
// same grid with zero-work tasks, so it fills the network store with every
// network the timed pass uses.
type workload struct {
	name string
	spec geogossip.SweepSpec
	// distributed runs the timed pass through an in-process SweepServe
	// coordinator and one one-slot SweepJoin worker on loopback; otherwise
	// it runs as a local Sweep on one worker slot.
	distributed bool
}

// setupSlots is the number of worker slots of the local pool a setup pass
// builds networks on.
const setupSlots = 2

// joinWorkers is the number of one-slot SweepJoin workers of a distributed
// pass. A second worker would keep both vCPUs of a 2-vCPU host busy next to
// the coordinator, so the pass would time the host's other load as much as
// the sweep.
const joinWorkers = 1

// workloads returns the benchmark's workloads with seed as every grid's
// SweepSpec.BaseSeed.
func workloads(seed uint64) []workload {
	return []workload{
		{
			name: "faults",
			// geographic can run for minutes under this medium (see
			// README.md, Known failures), so it is left out.
			spec: geogossip.SweepSpec{
				Algorithms: []string{"boyd", "push-sum", "affine-hierarchical"}, Ns: []int{1024}, Seeds: 12, BaseSeed: seed,
				TargetErr:   0.1,
				FaultModels: []string{"ge:0.05/0.3/0.01/0.5+churn:4000/400"},
				Transports:  []string{"delay:exp/1+arq:3/2/1.5"},
				Recovery:    []bool{true},
			},
		},
		{
			name: "grid",
			spec: geogossip.SweepSpec{
				Algorithms: []string{"boyd", "push-sum", "geographic", "affine-hierarchical"},
				Ns:         []int{512, 1024, 2048}, Seeds: 9, BaseSeed: seed, TargetErr: 0.05,
			},
			distributed: true,
		},
	}
}

func findWorkload(name string, seed uint64) (workload, bool) {
	for _, w := range workloads(seed) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupSpec turns the workload's grid into a zero-work grid over the same
// networks: one boyd task per network, with a target above any initial
// error, so each task stops before its first tick. A network is identified
// by its size, placement seed, radius and hierarchy shape, and every
// algorithm builds the full network, so boyd stands in for all of them.
func (w workload) setupSpec() geogossip.SweepSpec {
	s := w.spec
	return geogossip.SweepSpec{
		Algorithms:       []string{"boyd"},
		Ns:               s.Ns,
		Seeds:            s.Seeds,
		BaseSeed:         s.BaseSeed,
		RadiusMultiplier: s.RadiusMultiplier,
		Hierarchies:      s.Hierarchies,
		TargetErr:        1e9,
	}
}
