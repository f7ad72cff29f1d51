package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steadyReport runs each workload rounds times as separate untraced
// processes, seed seed+r in round r, alternating the workload order
// between rounds, and prints for every end-to-end metric the median, the
// quartiles (as Python's statistics.quantiles gives them), the
// interquartile spread and the min/max spread, both as shares of the
// median. Where BENCHMARK.json sits in the working directory, each spread
// is set against a third of the metric's bound.
func steadyReport(stdout io.Writer, rounds int, seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload → metric → runs
	bad := 0
	for r := 0; r < rounds; r++ {
		order := slices.Clone(workloadNames)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			s := strconv.FormatInt(seed+int64(r), 10)
			cmd := exec.Command(exe, "--workload", w, "--seed", s,
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			outb, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			last := lines[len(lines)-1]
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil || runErr != nil || !res.Correct {
				bad++
				fmt.Fprintf(stdout, "round %d %s seed %s: FAILED (%v)\n", r+1, w, s, runErr)
				continue
			}
			fmt.Fprintf(stdout, "round %d %s seed %s: %s\n", r+1, w, s, last)
			for _, l := range lines {
				if h, ok := strings.CutPrefix(l, "host "); ok {
					fmt.Fprintf(stdout, "round %d %s seed %s: host %s\n", r+1, w, s, h)
				}
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
		}
	}
	bounds := benchmarkBounds()
	fmt.Fprintf(stdout, "\n%-8s %-12s %3s %12s %12s %12s %8s %8s  %s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr%", "range%", "bound/3")
	for _, w := range workloadNames {
		for _, d := range endToEndMetrics {
			xs := values[w][d.name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			s := sorted(xs)
			verdict := ""
			if b, ok := bounds[d.name]; ok {
				verdict = fmt.Sprintf("%.1f%% ", 100*b/3)
				switch {
				case d.name == "setup_s":
					verdict += "(spread not gated)"
				case (q3-q1)/q2 < b/3:
					verdict += "ok"
				default:
					verdict += "WIDE"
				}
			}
			fmt.Fprintf(stdout, "%-8s %-12s %3d %12.6g %12.6g %12.6g %7.2f%% %7.2f%%  %s\n",
				w, d.name, len(xs), q2, q1, q3, 100*(q3-q1)/q2, 100*(s[len(s)-1]-s[0])/q2, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d runs failed\n", bad)
		return 1
	}
	return 0
}

// benchmarkBounds reads each end-to-end metric's bound from
// BENCHMARK.json in the working directory; it is empty when the file is
// absent or unreadable.
func benchmarkBounds() map[string]float64 {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.NewDecoder(bytes.NewReader(buf)).Decode(&spec); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
