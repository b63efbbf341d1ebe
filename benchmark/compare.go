package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
)

// readRecords reads a file of records written by --out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func compareFiles(w io.Writer, basePath, headPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	for _, row := range compare(base, head) {
		fmt.Fprintln(w, row)
	}
	return nil
}

// side holds one commit's values of a metric, keyed by seed so the two
// sides pair up run for run.
type side map[uint64]float64

func (s side) values() []float64 {
	out := make([]float64, 0, len(s))
	for _, k := range slices.Sorted(maps.Keys(s)) {
		out = append(out, s[k])
	}
	return out
}

// compare prints, per workload and end-to-end metric, each side's median
// and quartiles and one verdict:
//
//   - improved: head wins at least nine tenths of the seed-paired runs
//     (ties count for neither) and the medians differ, in head's favour, by
//     more than base's interquartile range;
//   - unresolved: either side's interquartile range exceeds the metric's
//     bound, unless every head run reads better than every base run;
//   - worse: head's median is worse than base's by more than the bound;
//   - no worse: otherwise.
//
// Untraced records only; it is a report, not a gate.
func compare(base, head []record) []string {
	collect := func(recs []record) map[string]map[string]side {
		out := make(map[string]map[string]side)
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string]side)
			}
			for name, v := range r.Metrics {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = make(side)
				}
				out[r.Workload][name][r.Host.Seed] = v.Value
			}
		}
		return out
	}
	b, h := collect(base), collect(head)
	rows := []string{fmt.Sprintf("%-8s %-12s %-32s %-32s %s", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "verdict")}
	for _, wl := range slices.Sorted(maps.Keys(b)) {
		for _, m := range endToEnd {
			bs, hs := b[wl][m.Name], h[wl][m.Name]
			if len(bs) == 0 || len(hs) == 0 {
				continue
			}
			bq1, bq3 := quartiles(bs.values())
			hq1, hq3 := quartiles(hs.values())
			rows = append(rows, fmt.Sprintf("%-8s %-12s %-32s %-32s %s", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(bs.values()), bq1, bq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(hs.values()), hq1, hq3),
				judge(m, bs, hs)))
		}
	}
	return rows
}

func judge(m metricDef, base, head side) string {
	// gain is positive when head reads better than base.
	gain := func(b, h float64) float64 {
		if m.Better == "higher" {
			return h - b
		}
		return b - h
	}
	wins, pairs := 0, 0
	for seed, bv := range base {
		if hv, ok := head[seed]; ok {
			pairs++
			if gain(bv, hv) > 0 {
				wins++
			}
		}
	}
	bMed, hMed := median(base.values()), median(head.values())
	bq1, bq3 := quartiles(base.values())
	hq1, hq3 := quartiles(head.values())
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain(bMed, hMed) > bq3-bq1 {
		return fmt.Sprintf("improved (%d of %d pairs won)", wins, pairs)
	}
	separated := true
	for _, bv := range base {
		for _, hv := range head {
			if gain(bv, hv) <= 0 {
				separated = false
			}
		}
	}
	spread := math.Max((bq3-bq1)/math.Abs(bMed), (hq3-hq1)/math.Abs(hMed))
	if spread > m.Bound && !separated {
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*m.Bound)
	}
	if -gain(bMed, hMed) > m.Bound*math.Abs(bMed) {
		return fmt.Sprintf("worse (%+.1f%%, bound %.0f%%)", 100*(hMed-bMed)/bMed, 100*m.Bound)
	}
	return fmt.Sprintf("no worse (%+.1f%%, bound %.0f%%)", 100*(hMed-bMed)/bMed, 100*m.Bound)
}
