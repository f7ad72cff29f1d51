package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		got, n := percentile(xs, tc.p)
		if math.Abs(got-tc.want) > 1e-9 || n != 100 {
			t.Errorf("percentile(1..100, %v) = %v, n=%d; want %v, n=100", tc.p, got, n, tc.want)
		}
	}
	if got, n := percentile([]float64{7}, 99); got != 7 || n != 1 {
		t.Errorf("single sample: got %v, n=%d", got, n)
	}
	if got, n := percentile(nil, 50); !math.IsNaN(got) || n != 0 {
		t.Errorf("no samples: got %v, n=%d; want NaN, 0", got, n)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(a, b int) span {
		return span{Start: time.Duration(a) * time.Millisecond, End: time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	children := []span{
		ms(20, 50), ms(10, 30), // overlap: together they cover 10..50
		ms(15, 25),   // nested inside the first two
		ms(90, 120),  // sticks out of the parent: only 90..100 counts
		ms(200, 210), // wholly outside
	}
	if got, want := selfTime(parent, children), 50*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime with no children = %v, want 100ms", got)
	}
}

func TestTracerSpansShareTraceAndNilIsNoOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job-1", "job", 0)
	child := tr.begin("", "service.submit", root)
	tr.end(child)
	tr.end(root)
	kids := tr.children(root)
	if len(kids) != 1 || kids[0].ID != child || kids[0].Name != "service.submit" || kids[0].Trace != "job-1" {
		t.Errorf("children(root) = %+v, want the submit span in trace job-1", kids)
	}
	var off *tracer
	if id := off.begin("x", "y", 0); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	off.end(0)
	if d := off.timed("z", 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("nil tracer timed = %v, want the call's duration", d)
	}
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestDigestCheckRejectsOneByteChange(t *testing.T) {
	out := []byte(`{"version":1,"name":"fig9","bars":[{"w":"hashmap","v":1.25}]}`)
	changed := append([]byte(nil), out...)
	changed[len(changed)-4] ^= 1

	golden := map[string]string{"whisper": digestOf(out)}
	c := newDigestCheck(golden, "whisper", defaultSeed)
	if err := c.check(digestOf(out)); err != nil {
		t.Fatalf("committed bytes rejected: %v", err)
	}
	if err := c.check(digestOf(changed)); err == nil {
		t.Fatal("one-byte change accepted at the default seed")
	}

	// Another seed has no committed digest: the first pass pins it.
	c = newDigestCheck(golden, "whisper", 7)
	if err := c.check(digestOf(out)); err != nil {
		t.Fatalf("first pass rejected: %v", err)
	}
	if err := c.check(digestOf(changed)); err == nil {
		t.Fatal("one-byte change between passes accepted")
	}

	// A workload without a committed digest never passes at the default seed.
	if err := newDigestCheck(golden, "serve", defaultSeed).check(digestOf(out)); err == nil {
		t.Fatal("missing committed digest accepted")
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if len(golden[w]) != 64 {
			t.Errorf("golden.json has no sha256 for %s", w)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists a run
// reports in step with the ones BENCHMARK.json declares.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []entry, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloadNames[i])
		}
	}
}

func TestUnstolenShare(t *testing.T) {
	at := func(busy, steal float64) cpuTicks { return cpuTicks{busy: busy, steal: steal} }
	for _, tc := range []struct {
		window   time.Duration
		from, to cpuTicks
		want     float64
	}{
		{10 * time.Second, at(0, 0), at(1000, 0), 1},
		{10 * time.Second, at(0, 0), at(750, 250), 0.75},    // one busy vCPU, a quarter stolen
		{10 * time.Second, at(0, 0), at(1500, 500), 0.75},   // two busy vCPUs, the same share
		{10 * time.Second, at(100, 50), at(850, 300), 0.75}, // deltas, not totals
		{500 * time.Millisecond, at(0, 0), at(25, 25), 1},   // too short to scale
		{10 * time.Second, at(0, 10), at(1000, 5), 1},       // counter went back
		{10 * time.Second, at(0, 0), at(0, 0), 1},           // no ticks
	} {
		if got := unstolen(tc.window, tc.from, tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("unstolen(%v, %+v, %+v) = %v, want %v", tc.window, tc.from, tc.to, got, tc.want)
		}
	}
	if got := stolenOut(2, 2, 0.75); got != 1.5 {
		t.Errorf("stolenOut of a 2 s pass = %v, want 1.5", got)
	}
	if got := stolenOut(0.7, 0.0007, 0.75); got != 0.7 {
		t.Errorf("stolenOut of a 0.7 ms job = %v, want it unscaled", got)
	}
}
