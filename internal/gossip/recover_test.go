package gossip

import (
	"math"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

func parseSpec(t *testing.T, text string) channel.Spec {
	t.Helper()
	spec, err := channel.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBoydResyncFiresOnRevival(t *testing.T) {
	g := generate(t, 150, 2.0, 500)
	x0 := randomValues(g.N(), 501)
	run := func(resync bool) (*resultStats, []float64) {
		x := append([]float64(nil), x0...)
		res, err := RunBoyd(g, x, Options{
			RunEnv: sim.RunEnv{
				Stop:    sim.StopRule{TargetErr: 1e-3, MaxTicks: 300_000},
				Faults:  parseSpec(t, "churn:2000/1000"),
				Recover: resync,
			},
		}, rng.New(502))
		if err != nil {
			t.Fatal(err)
		}
		return &resultStats{resyncs: res.Resyncs, finalErr: res.FinalErr}, x
	}
	withR, x := run(true)
	if withR.resyncs == 0 {
		t.Fatal("no resyncs despite revival churn")
	}
	if math.IsNaN(withR.finalErr) || math.IsInf(withR.finalErr, 0) {
		t.Fatalf("resync run produced invalid error %v", withR.finalErr)
	}
	// Resync trades exact sum preservation for local recovery; the drift
	// it introduces must stay small relative to the initial spread.
	drift := math.Abs(meanOf(x) - meanOf(x0))
	var spread float64
	m := meanOf(x0)
	for _, v := range x0 {
		spread += (v - m) * (v - m)
	}
	spread = math.Sqrt(spread / float64(len(x0)))
	if drift > spread/2 {
		t.Fatalf("resync drift %v exceeds half the initial spread %v", drift, spread)
	}
	without, _ := run(false)
	if without.resyncs != 0 {
		t.Fatal("resyncs fired with Resync disabled")
	}
}

type resultStats struct {
	resyncs  uint64
	finalErr float64
}

func TestHubChurnKillsOnlyHubs(t *testing.T) {
	g := generate(t, 200, 2.0, 503)
	x := randomValues(g.N(), 504)
	res, err := RunBoyd(g, x, Options{
		RunEnv: sim.RunEnv{
			Stop:   sim.StopRule{TargetErr: 1e-9, MaxTicks: 200_000}, // run to the tick cap
			Faults: parseSpec(t, "hubchurn:1000/0/15"),
		},
	}, rng.New(505))
	if err != nil {
		t.Fatal(err)
	}
	if res.Alive == nil {
		t.Fatal("no liveness mask despite crash-stop hub churn")
	}
	hubs := g.ByDegreeDesc()[:15]
	isHub := make(map[int32]bool, 15)
	dead := 0
	for _, h := range hubs {
		isHub[h] = true
	}
	for i, alive := range res.Alive {
		if !alive {
			dead++
			if !isHub[int32(i)] {
				t.Fatalf("non-hub node %d died under hub-targeted churn", i)
			}
		}
	}
	if dead == 0 {
		t.Fatal("no hub died in 200 mean lifetimes")
	}
}

func TestRepChurnRejectedWithoutHierarchy(t *testing.T) {
	g := generate(t, 64, 2.5, 506)
	x := randomValues(g.N(), 507)
	if _, err := RunBoyd(g, x, Options{RunEnv: sim.RunEnv{Faults: parseSpec(t, "repchurn:1000/0")}}, rng.New(1)); err == nil {
		t.Fatal("boyd accepted rep-targeted churn without a hierarchy")
	}
	if _, err := RunGeographic(g, x, GeoOptions{Options: Options{RunEnv: sim.RunEnv{Faults: parseSpec(t, "repchurn:1000/0")}}}, rng.New(1)); err == nil {
		t.Fatal("geographic accepted rep-targeted churn without a hierarchy")
	}
}

func TestGeographicDegradesInsideJammingDisk(t *testing.T) {
	g := generate(t, 250, 2.0, 508)
	run := func(spec string) uint64 {
		x := randomValues(g.N(), 509)
		res, err := RunGeographic(g, x, GeoOptions{
			Options: Options{
				RunEnv: sim.RunEnv{
					Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000},
					Faults: parseSpec(t, spec),
				},
			},
		}, rng.New(510))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s run did not converge", spec)
		}
		return res.Transmissions
	}
	clean := run("perfect")
	jammed := run("jam:0.5/0.5/0.2/0.8")
	if jammed <= clean {
		t.Fatalf("jamming disk did not inflate cost: %d <= %d", jammed, clean)
	}
}

func TestBoydSurvivesPartitionHeal(t *testing.T) {
	g := generate(t, 200, 2.0, 511)
	x := randomValues(g.N(), 512)
	mean := meanOf(x)
	res, err := RunBoyd(g, x, Options{
		RunEnv: sim.RunEnv{
			Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000},
			Faults: parseSpec(t, "cut:1/0/0.5/0/100000"),
		},
	}, rng.New(513))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("partition/heal run did not converge: err=%v", res.FinalErr)
	}
	// The deterministic cut drops packets without touching values, so the
	// sum invariant survives exactly.
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted across the partition: %v -> %v", mean, meanOf(x))
	}
	if res.Ticks < 100_000 {
		t.Fatalf("run converged inside the partition window (%d ticks)", res.Ticks)
	}
}
