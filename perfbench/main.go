// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points (terp.Run, runner, service.New over
// httptest), checks every output against committed digests, and prints
// end-to-end metrics from untraced passes or, with --trace 1, per-layer
// metrics from a traced pass plus a fixed layer sweep. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. See NOTES.md.
//
//	bash perfbench/run.sh --workload whisper --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 25   # steadiness report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/runner"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// declared is a metric BENCHMARK.json lists; a run reports exactly these.
type declared struct{ name, unit string }

var endToEndMetrics = []declared{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
}

var perLayerMetrics = []declared{
	{"sim.yield_ns", "ns"},
	{"sim.cycles", "count"},
	{"sim.mcycles_per_s", "Mcycles/s"},
	{"interp.kernel_ms.mcf", "ms"},
	{"interp.kernel_ms.lbm", "ms"},
	{"interp.kernel_ms.imagick", "ms"},
	{"interp.kernel_ms.nab", "ms"},
	{"interp.kernel_ms.xz", "ms"},
	{"compiler.build_ms", "ms"},
	{"ir.link_ms", "ms"},
	{"core.load_ns", "ns"},
	{"core.store_ns", "ns"},
	{"core.attach_detach_us.mm", "us"},
	{"core.attach_detach_us.tt", "us"},
	{"paging.tlb_lookup_ns", "ns"},
	{"paging.tlb_misses", "count"},
	{"core.attach_syscalls", "count"},
	{"core.cond_ops", "count"},
	{"terphw.sweep_rand", "count"},
	{"nvm.cache_access_ns.hit", "ns"},
	{"nvm.cache_access_ns.miss", "ns"},
	{"nvm.persist_line_ns", "ns"},
	{"nvm.crash_image_ms", "ms"},
	{"whisper.op_us.hashmap", "us"},
	{"whisper.op_us.ctree", "us"},
	{"whisper.op_us.echo", "us"},
	{"whisper.op_us.redis", "us"},
	{"whisper.op_us.ycsb", "us"},
	{"whisper.op_us.tpcc", "us"},
	{"crash.point_ms", "ms"},
	{"crash.points", "count"},
	{"crash.failures", "count"},
	{"litmus.program_ms", "ms"},
	{"litmus.modelstates", "count"},
	{"litmus.violations", "count"},
	{"runner.cell_s", "s"},
	{"terp.assemble_ms", "ms"},
	{"terp.grid_json_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.grid_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"ledger.append_us", "us"},
	{"obs.trace_overhead", "ratio"},
}

// outDir, relative to the checkout root the benchmark runs from, holds
// the build, temp files and span dumps (see run.sh).
const outDir = ".bench_build"

// minPasses is the fewest timed passes a run makes, so that wall_s is a
// median of passes even where one pass takes half the budget (spec-mt).
const minPasses = 2

// tracedSeconds is how long the traced run repeats the workload's pass
// (at least once).
const tracedSeconds = 2 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 25, "time budget of the timed passes: whole passes that fit, at least two")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	steady := fs.Int("steady", 0, "steadiness report: run every workload this many times, seeds seed..seed+n-1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *steady > 0 {
		return steadyReport(stdout, *steady, *seed, *seconds)
	}
	res, err := runWorkload(stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runState accumulates operation counts and problems over a run.
type runState struct {
	check     *digestCheck
	passes    int
	attempted int
	failed    int
	problems  []string
	seen      map[string]int // occurrences of each problem
	digests   map[string]int // passes per output digest
}

func newRunState(check *digestCheck) *runState {
	return &runState{check: check, seen: map[string]int{}, digests: map[string]int{}}
}

func (s *runState) problem(msg string) {
	if s.seen[msg] == 0 {
		s.problems = append(s.problems, msg)
	}
	s.seen[msg]++
}

// account checks one pass: a digest mismatch fails every operation of
// the pass.
func (s *runState) account(pr passResult) {
	s.passes++
	s.attempted += pr.ops
	s.failed += pr.failed
	s.digests[pr.digest]++
	for _, p := range pr.problems {
		s.problem(p)
	}
	if err := s.check.check(pr.digest); err != nil {
		s.failed += pr.ops - pr.failed
		s.problem(err.Error())
	}
}

// report prints the checked passes and every distinct problem.
func (s *runState) report(out io.Writer) {
	for _, d := range sortedKeys(s.digests) {
		fmt.Fprintf(out, "digest %s: %d of %d passes\n", d, s.digests[d], s.passes)
	}
	for _, p := range s.problems {
		fmt.Fprintf(out, "problem (x%d): %s\n", s.seen[p], p)
	}
}

func runWorkload(stdout io.Writer, name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", name, seed, dur.Seconds(), traced)
	w, err := newWorkload(name, seed, tmp)
	if err != nil {
		return nil, err
	}
	defer w.close()
	host := startHost()

	ticks0, setupStart := readCPUTicks(), time.Now()
	setupS, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	setupShare := unstolen(time.Since(setupStart), ticks0, readCPUTicks())
	_, missesBefore := runner.DefaultCache.Stats()

	st := newRunState(newDigestCheck(golden, name, seed))
	var walls, latency []float64
	var jobs int
	var measured time.Duration
	var rss []float64
	sampler := startRSSSampler()
	ticks1, start := readCPUTicks(), time.Now()
	for {
		pr := w.pass(nil)
		rss = append(rss, sampler.take())
		st.account(pr)
		walls = append(walls, pr.wall.Seconds())
		if pr.latency != nil {
			latency = append(latency, pr.latency...)
		} else {
			latency = append(latency, float64(pr.wall)/1e6)
		}
		jobs += pr.jobs
		measured += pr.wall
		// Stop at the budget, or before a pass that would overrun it:
		// a run then measures whole passes, at least minPasses.
		if elapsed := time.Since(start); len(walls) >= minPasses && elapsed+pr.wall > dur {
			break
		}
	}
	share := unstolen(time.Since(start), ticks1, readCPUTicks())
	sampler.close()
	if _, misses := runner.DefaultCache.Stats(); misses > missesBefore {
		fmt.Fprintf(stdout, "warning: timed passes compiled %d programs that set-up did not\n", misses-missesBefore)
	}

	m := metricSet{}
	if !traced {
		p50, n := percentile(latency, 50)
		p99, _ := percentile(latency, 99)
		m.set("setup_s", stolenOut(setupS, setupS, setupShare), "s")
		m.set("wall_s", stolenOut(median(walls), median(walls), share), "s")
		m.set("peak_rss_mb", median(rss), "MB")
		m.set("jobs_per_s", float64(jobs)/measured.Seconds()/share, "jobs/s")
		m.set("job_p50_ms", stolenOut(p50, p50/1e3, share), "ms")
		fmt.Fprintf(stdout, "passes %d, jobs %d, latency samples %d, wall_s min %.4f max %.4f\n",
			len(walls), jobs, n, slices.Min(walls), slices.Max(walls))
		// Not a declared metric: steal arrives in bursts of milliseconds
		// that land on a few jobs, and in high-steal periods they moved
		// serve's p99 by half between runs (see NOTES.md).
		fmt.Fprintf(stdout, "job_p99_ms %.6g ms over %d samples (not gated)\n", stolenOut(p99, p99/1e3, share), n)
		fmt.Fprintf(stdout, "unstolen share: set-up %.4f, passes %.4f; with stolen time: setup_s %.6g wall_s %.6g jobs_per_s %.6g job_p50_ms %.6g job_p99_ms %.6g\n",
			setupShare, share, setupS, median(walls), float64(jobs)/measured.Seconds(), p50, p99)
		if len(walls) <= 20 {
			fmt.Fprintf(stdout, "pass walls %.4f\n", walls)
		}
	} else {
		if err := tracedRun(stdout, st, w, m, median(walls), seed, tmp, name); err != nil {
			return nil, err
		}
	}

	host.finish()
	hostLine, err := json.Marshal(host)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	decl := endToEndMetrics
	if traced {
		decl = perLayerMetrics
	}
	res := &result{Attempted: st.attempted, Failed: st.failed, Metrics: metricSet{}}
	for _, d := range decl {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			st.problem(fmt.Sprintf("metric %s missing or not finite (%v)", d.name, v.Value))
			continue
		}
		res.Metrics[d.name] = v
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", d.name, v.Value, v.Unit)
	}
	st.report(stdout)
	res.Correct = len(st.problems) == 0 && res.Failed == 0
	return res, nil
}

// tracedRun repeats the workload's pass under a tracer, runs the layer
// sweep, and fills m with every per-layer metric.
func tracedRun(stdout io.Writer, st *runState, w workload, m metricSet, untracedWall float64, seed int64, tmp, name string) error {
	tr := newTracer()
	var walls []float64
	start := time.Now()
	for {
		pr := w.pass(tr)
		st.account(pr)
		walls = append(walls, pr.wall.Seconds())
		if time.Since(start) >= tracedSeconds {
			break
		}
	}
	m.set("obs.trace_overhead", median(walls)/untracedWall, "ratio")
	if r, ok := w.(interface{ reference(*tracer) passResult }); ok {
		st.account(r.reference(tr))
	}
	passMetrics(stdout, tr, m)

	sm, problems := layerSweep(tr, seed, tmp)
	for k, v := range sm {
		m[k] = v
	}
	st.attempted += len(sweepProbes)
	st.failed += len(problems)
	for _, p := range problems {
		st.problem(p)
	}

	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	return nil
}

// passMetrics derives the runner/terp metrics from every root span that
// ran experiments in process: summed cell time, run time after the last
// cell (see cellTimes) and grid marshalling, each the median over those
// roots.
func passMetrics(stdout io.Writer, tr *tracer, m metricSet) {
	var cellS, assembleMS, jsonMS []float64
	kinds := map[string][]float64{}
	for _, root := range tr.children(0) {
		byKind, assemble := cellTimes(tr, root.ID)
		if len(byKind) == 0 && assemble == 0 {
			continue
		}
		var cells, js time.Duration
		for k, d := range byKind {
			cells += d
			kinds[k] = append(kinds[k], d.Seconds())
		}
		for _, c := range tr.children(root.ID) {
			if c.Name == "terp.grid_json" {
				js += c.dur()
			}
		}
		cellS = append(cellS, cells.Seconds())
		assembleMS = append(assembleMS, float64(assemble)/1e6)
		jsonMS = append(jsonMS, float64(js)/1e6)
	}
	m.set("runner.cell_s", median(cellS), "s")
	m.set("terp.assemble_ms", median(assembleMS), "ms")
	m.set("terp.grid_json_ms", median(jsonMS), "ms")
	for _, k := range sortedKeys(kinds) {
		fmt.Fprintf(stdout, "runner.cell_s.%s %.6g s\n", k, median(kinds[k]))
	}
}
