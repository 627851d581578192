package main

// Compare mode: two directories of result files, one file per run
// named <workload>-<anything>.json holding that run's output (only the
// last line is read). For every workload and end-to-end metric it
// prints each side's median and quartiles and flags a metric whose
// second-side median is worse than the first by more than the bound in
// BENCHMARK.json, and ends each workload with a one-row verdict.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads a directory into workload → metric → values.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		base := strings.TrimSuffix(filepath.Base(f), ".json")
		wl := base
		for name := range workloads {
			if strings.HasPrefix(base, name) {
				wl = name
			}
		}
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			out[wl][name] = append(out[wl][name], m.Value)
		}
		out[wl]["failed_share"] = append(out[wl]["failed_share"], float64(res.Failed)/float64(res.Attempted))
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile
// (the exclusive method of Python's statistics.quantiles).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

func runCompare(dirA, dirB string, w io.Writer) error {
	specBytes, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(specBytes, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-16s %32s %32s %s\n", "workload", "metric", "A q1/median/q3", "B q1/median/q3", "verdict")
	for _, wl := range names {
		var regressed []string
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = (a2 - b2) / a2
			}
			verdict := fmt.Sprintf("%+.1f%% worse", 100*worse)
			if worse > m.Bound {
				verdict += fmt.Sprintf("  REGRESSION (bound %.0f%%)", 100*m.Bound)
				regressed = append(regressed, m.Name)
			}
			fmt.Fprintf(w, "%-14s %-16s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %s\n",
				wl, m.Name, a1, a2, a3, b1, b2, b3, verdict)
		}
		fa, fb := a[wl]["failed_share"], b[wl]["failed_share"]
		if len(fa) > 0 && len(fb) > 0 {
			fmt.Fprintf(w, "%-14s %-16s %32.6g %32.6g\n", wl, "failed_share", median(fa), median(fb))
		}
		summary := "no end-to-end metric worse beyond its bound"
		if len(regressed) > 0 {
			summary = "REGRESSION: " + strings.Join(regressed, ", ")
		}
		fmt.Fprintf(w, "%-14s %s\n", wl, summary)
	}
	return nil
}
