package experiments

import (
	"context"
	"fmt"
	"math"

	"geogossip/internal/engine"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/spectral"
	"geogossip/internal/stats"
	"geogossip/internal/sweep"
	"geogossip/internal/table"
)

// RunE16Mixing regenerates Table 6: the paper's §1.1 claim (after Boyd et
// al. [1, 2]) that nearest-neighbour gossip costs Θ(n·T_mix) transmissions
// on G(n, r), with T_mix driven by diffusion at scale r (T_rel ≈ Θ(1/r²)
// up to logarithms). The experiment measures the walk's relaxation time
// spectrally and compares it with the simulated gossip cost.
//
// Each network size is an independent measurement (its graph, power
// iteration, and gossip run seed only from the base seed and n), so the
// sizes run concurrently on the sweep engine and the rows assemble in
// size order.
func RunE16Mixing(cfg Config) (*Report, error) {
	rep := &Report{ID: "E16", Title: "Table 6 — mixing time vs nearest-neighbour gossip cost"}
	ns := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		ns = []int{256, 512, 1024}
	}
	const c = 1.5
	type row struct {
		lambda2, relax, invR2, ratio float64
		transmissions                uint64
	}
	rows, err := sweep.Map(context.Background(), len(ns), cfg.Workers,
		func(i int) (row, error) {
			n := ns[i]
			g, err := connectedGraph(n, c, cfg.seed())
			if err != nil {
				return row{}, err
			}
			iters := int(40 * float64(n) / (c * c * math.Log(float64(n))))
			if iters < 800 {
				iters = 800
			}
			sp, err := spectral.Estimate(g, iters, rng.New(cfg.seed()+600))
			if err != nil {
				return row{}, err
			}
			x := e1Field(g)
			res, err := runEngine(engine.Boyd, g, nil, x,
				sim.RunEnv{Stop: sim.StopRule{TargetErr: 1e-2, MaxTicks: 200_000_000}}, cfg.seed()+601)
			if err != nil {
				return row{}, err
			}
			if !res.Converged {
				return row{}, fmt.Errorf("E16: boyd at n=%d did not converge", n)
			}
			invR2 := 1 / (g.Radius() * g.Radius())
			return row{
				lambda2:       sp.Lambda2,
				relax:         sp.RelaxationTime,
				invR2:         invR2,
				ratio:         float64(res.Transmissions) / (float64(n) * sp.RelaxationTime),
				transmissions: res.Transmissions,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	tb := table.New("Lazy natural walk on G(n, 1.5·sqrt(log n/n)) vs simulated gossip cost (target 1e-2)",
		"n", "lambda2", "T_rel", "1/r^2", "boyd transmissions", "tx / (n·T_rel)")
	var xs, relaxes, invR2s, ratios []float64
	for i, n := range ns {
		r := rows[i]
		tb.AddRowf(n, r.lambda2, r.relax, r.invR2, r.transmissions, r.ratio)
		xs = append(xs, float64(n))
		relaxes = append(relaxes, r.relax)
		invR2s = append(invR2s, r.invR2)
		ratios = append(ratios, r.ratio)
	}
	rep.addTable(tb)
	plot := &table.Plot{
		Title:  "Table 6 as a figure: relaxation time vs n (log-log), measured (*) vs 1/r^2 (+)",
		XLabel: "n",
		YLabel: "T_rel",
		LogX:   true,
		LogY:   true,
	}
	plot.Add("T_rel", xs, relaxes)
	plot.Add("1/r^2", xs, invR2s)
	rep.addPlot(plot)

	pRel, _, r2Rel, err := stats.PowerLawFit(xs, relaxes)
	if err != nil {
		return nil, err
	}
	pR2, _, _, err := stats.PowerLawFit(xs, invR2s)
	if err != nil {
		return nil, err
	}
	rep.check("relaxation time scales like 1/r^2", math.Abs(pRel-pR2) < 0.35,
		"T_rel exponent %v vs 1/r^2 exponent %v (R2=%v) — the diffusive mixing of [2]",
		fmtF(pRel), fmtF(pR2), fmtF(r2Rel))
	ratioSummary := stats.Summarize(ratios)
	spread := ratioSummary.Max / ratioSummary.Min
	rep.check("gossip cost tracks n·T_rel", spread < 6,
		"tx/(n·T_rel) spans [%v, %v] (x%v) across sizes — consistent with the Theta(n·T_mix) law "+
			"up to the log(1/eps) factor the bound absorbs",
		fmtF(ratioSummary.Min), fmtF(ratioSummary.Max), fmtF(spread))
	return rep, nil
}
