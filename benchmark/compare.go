package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges side b against side a for one (metric, workload) pair by
// the rule of the choosing-metrics guide: worse when b's median is worse
// than a's by more than the bound; better when every run of b reads better
// than every run of a; unresolved when neither holds and either side's
// own spread is wider than the bound; same otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / ma
	if higherBetter {
		worseBy = -worseBy
	}
	aLo, aHi := minMax(a)
	bLo, bHi := minMax(b)
	switch {
	case higherBetter && bLo > aHi, !higherBetter && bHi < aLo:
		return "better", worseBy
	case worseBy > bound:
		return "worse", worseBy
	case spread(a) > bound || spread(b) > bound:
		return "unresolved", worseBy
	}
	return "same", worseBy
}

// sideValues gathers one side's readings of a metric on a workload: one
// value per result file, or the per-round values when the side is a single
// file.
func sideValues(files []resultFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		w, ok := f.Workloads[workload]
		if !ok {
			continue
		}
		if len(files) == 1 && metric != "setup_s" {
			for _, r := range w.Rounds {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		} else if m, ok := w.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func loadSide(arg string) ([]resultFile, error) {
	var out []resultFile
	for _, path := range strings.Split(arg, ",") {
		var f resultFile
		if err := readJSON(path, &f); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// settings is what must be equal on both sides of a comparison: a run
// with other clients or round lengths measures something else. The seed
// may differ — the cost of a statement depends on its template, not on the
// seed — and so may the host fields, which are there to explain a
// disagreement.
func (f *resultFile) settings() string {
	c := f.Conditions
	return fmt.Sprintf("segments %d, clients %d, %d rounds x %g s, warm-up %g s, %d set-ups, traced %v",
		c.Segments, c.Clients, c.Rounds, c.RoundSeconds, c.WarmupS, c.Setups, c.Traced)
}

// sameSettings refuses result files measured under different settings.
func sameSettings(files []resultFile) error {
	for i := range files[1:] {
		if a, b := files[0].settings(), files[i+1].settings(); a != b {
			return fmt.Errorf("results were measured under different settings and cannot be compared:\n  %s\n  %s", a, b)
		}
	}
	return nil
}

func errorRate(files []resultFile, workload string) (failed, attempted int) {
	for _, f := range files {
		if w, ok := f.Workloads[workload]; ok {
			failed += w.Failed
			attempted += w.Attempted
		}
	}
	return failed, attempted
}

// compareMain implements -compare: exit 1 when any (metric, workload) pair
// is worse, 0 otherwise.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json[,a2.json...] b.json[,b2.json...]")
		return 2
	}
	var spec benchmarkSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: bounds come from BENCHMARK.json in the working directory: %v\n", err)
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b []resultFile
		if b, err = loadSide(args[1]); err == nil {
			if err = sameSettings(append(append([]resultFile(nil), a...), b...)); err == nil {
				return compareSides(spec, a, b)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareSides(spec benchmarkSpec, a, b []resultFile) int {
	names := map[string]bool{}
	for _, f := range a {
		for w := range f.Workloads {
			names[w] = true
		}
	}
	var order []string
	for w := range names {
		order = append(order, w)
	}
	sort.Strings(order)

	counts := map[string]int{}
	fmt.Printf("%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, w := range order {
		for _, m := range spec.EndToEnd {
			va, vb := sideValues(a, w, m.Name), sideValues(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worseBy := verdict(va, vb, m.Better == "higher", m.Bound)
			counts[v]++
			fmt.Printf("%-12s %-20s %14.4f %14.4f %+8.1f%% %6.1f%%  %s\n", w, m.Name, median(va), median(vb), worseBy*100, m.Bound*100, v)
		}
		fa, na := errorRate(a, w)
		fb, nb := errorRate(b, w)
		if na > 0 && nb > 0 {
			v := "same"
			if ratio(int64(fb), int64(nb)) > ratio(int64(fa), int64(na)) {
				v = "worse" // any increase
			}
			counts[v]++
			fmt.Printf("%-12s %-20s %14.6f %14.6f %9s %7s  %s\n", w, "error_rate", ratio(int64(fa), int64(na)), ratio(int64(fb), int64(nb)), "", "any", v)
		}
	}
	fmt.Printf("\n%d better, %d same, %d unresolved, %d worse (change is how much worse b's median is; negative is better)\n",
		counts["better"], counts["same"], counts["unresolved"], counts["worse"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}
