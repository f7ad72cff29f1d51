package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	terp "repro"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/speckit"
)

// passResult is one timed pass of a workload.
type passResult struct {
	wall     time.Duration
	jobs     int       // jobs completed
	ops      int       // operations attempted: cells, or served jobs
	failed   int       // operations failed
	digest   string    // sha256 over the pass's output bytes
	latency  []float64 // per-job submit→verified-grid latency, ms (serve)
	problems []string
}

// workload is one benchmark workload.
type workload interface {
	// setup does everything before the first timed pass and returns its
	// duration in seconds.
	setup() (float64, error)
	// pass runs one timed pass, recording spans into tr when non-nil.
	pass(tr *tracer) passResult
	close()
}

var workloadNames = []string{"spec-mt", "whisper", "crash", "serve"}

// whisperOps sizes the fig9 pass: cost is linear in ops (~2.3 s per
// pass at 20k on a 2-vCPU Xeon).
const whisperOps = 20000

// crashSeeds is how many consecutive seeds one crash pass covers; one
// seed costs about 1.7 s whatever the op count, because the crash
// experiment clamps its run length.
const crashSeeds = 2

func newWorkload(name string, seed int64, out string) (workload, error) {
	switch name {
	case "spec-mt":
		return &simWorkload{
			specs: []terp.ExperimentSpec{{Name: "fig11", Opts: terp.ExpOpts{Seed: seed}, Parallel: 1}},
			prime: primeFig11,
		}, nil
	case "whisper":
		return &simWorkload{
			specs: []terp.ExperimentSpec{{Name: "fig9", Opts: terp.ExpOpts{Ops: whisperOps, Seed: seed}, Parallel: 1}},
		}, nil
	case "crash":
		var specs []terp.ExperimentSpec
		for s := seed; s < seed+crashSeeds; s++ {
			specs = append(specs,
				terp.ExperimentSpec{Name: "crash", Opts: terp.ExpOpts{Seed: s}, Parallel: 1},
				terp.ExperimentSpec{Name: "litmus", Opts: terp.ExpOpts{Seed: s}, Parallel: 1})
		}
		return &simWorkload{specs: specs}, nil
	case "serve":
		// One P, so that a job's handoffs between client, handlers and
		// pool worker stay on one vCPU. With two, a handoff to the other
		// vCPU waits out every steal burst there while this one idles,
		// which no steal counter shows: in two runs that lost most of
		// their time to steal, serve's set-up and median cycle read
		// three times their usual time. One P hides lock contention
		// and cross-vCPU wake-ups; see NOTES.md.
		runtime.GOMAXPROCS(1)
		return newServeWorkload(seed, out)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

// simWorkload runs a fixed list of experiments through terp.Run with one
// pool worker. Without a prime function its set-up is one untimed
// warm-up pass: the first-pass cost every one-shot terpbench call pays.
type simWorkload struct {
	specs []terp.ExperimentSpec
	prime func() (float64, error)
}

func (w *simWorkload) setup() (float64, error) {
	if w.prime != nil {
		return w.prime()
	}
	pr := w.pass(nil)
	if len(pr.problems) > 0 {
		return 0, fmt.Errorf("warm-up pass: %s", strings.Join(pr.problems, "; "))
	}
	return pr.wall.Seconds(), nil
}

func (w *simWorkload) pass(tr *tracer) passResult { return runSpecs(tr, "pass", w.specs) }

func (w *simWorkload) close() {}

// runSpecs runs each spec through terp.Run and hashes the grids' wire
// bytes in order. Under a tracer each run gets a "terp.Run" span whose
// children are its cells, timed from the progress callback: with one
// worker, cells run back to back, so the gap between two completions is
// the later cell's time plus its dispatch (the first also takes in pool
// start-up). Each marshal gets a "terp.grid_json" span.
func runSpecs(tr *tracer, name string, specs []terp.ExperimentSpec) passResult {
	var pr passResult
	h := sha256.New()
	start := time.Now()
	root := tr.begin(name, name, 0)
	for _, spec := range specs {
		cells, err := spec.CellCount()
		if err != nil {
			pr.problems = append(pr.problems, err.Error())
			continue
		}
		pr.ops += cells
		runID := tr.begin("", "terp.Run "+spec.Name, root)
		if tr != nil {
			last := time.Now()
			spec.Progress = func(done, total int, cell string) {
				now := time.Now()
				tr.record("", "cell "+cell, runID, last, now)
				last = now
			}
		}
		g, err := terp.Run(spec)
		tr.end(runID)
		if err != nil {
			pr.failed += cells
			pr.problems = append(pr.problems, fmt.Sprintf("%s seed %d: %v", spec.Name, spec.Opts.Seed, err))
			continue
		}
		var buf []byte
		tr.timed("terp.grid_json", root, func() { buf, err = g.JSON() })
		if err != nil {
			pr.failed += cells
			pr.problems = append(pr.problems, fmt.Sprintf("%s: marshal: %v", spec.Name, err))
			continue
		}
		h.Write(buf)
		if msg := gridFailures(g); msg != "" {
			pr.failed += cells
			pr.problems = append(pr.problems, fmt.Sprintf("%s seed %d: %s", spec.Name, spec.Opts.Seed, msg))
		}
	}
	tr.end(root)
	pr.wall = time.Since(start)
	pr.jobs = 1
	pr.digest = hex.EncodeToString(h.Sum(nil))
	return pr
}

// gridFailures reports crash points that failed recovery and litmus
// programs that violated the persistency model; both must be zero.
func gridFailures(g *terp.Grid) string {
	var crash, litmus int
	for _, r := range g.Crash {
		crash += r.Failures
	}
	for _, r := range g.Litmus {
		litmus += r.Violations
	}
	if crash+litmus == 0 {
		return ""
	}
	return fmt.Sprintf("%d crash failures, %d litmus violations", crash, litmus)
}

// fig11Configs mirrors the Figure 11 cell configurations (baseline plus
// the ablation set) so set-up can compile every program fig11 runs.
var fig11Configs = []struct {
	scheme params.Scheme
	ew     float64
}{
	{params.Unprotected, 40},
	{params.BasicSem, 40},
	{params.PlusCond, 40},
	{params.PlusCB, 40},
	{params.TT, 80},
	{params.TT, 160},
}

// primeSetups is how many times spec-mt set-up is repeated; setup_s is
// the median, which a steal burst hitting a few 25–40 ms fills does not
// move.
const primeSetups = 61

// primeFig11 compiles and links every fig11 program into a fresh cache
// primeSetups-1 times, then into runner.DefaultCache, and returns the
// median duration. The caller checks that timed passes then compile
// nothing.
func primeFig11() (float64, error) {
	var times []float64
	for i := 0; i < primeSetups; i++ {
		cache := runner.NewProgCache()
		if i == primeSetups-1 {
			cache = runner.DefaultCache
		}
		start := time.Now()
		for _, k := range speckit.Kernels() {
			for _, c := range fig11Configs {
				opt, insert := speckit.InsertOptions(params.NewConfig(c.scheme, c.ew))
				if _, err := cache.Linked(k, 1, insert, opt); err != nil {
					return 0, fmt.Errorf("priming %s: %w", k.Name, err)
				}
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// cellTimes sums the cell spans of every terp.Run span under root, by
// cell kind, and returns the summed run time after each run's last cell.
// A cell span runs from the previous completion (or the start of the
// run) to this one, so it takes in pool start-up and per-cell dispatch;
// what is left of the run is the result hand-back, pool teardown and
// grid assembly.
func cellTimes(tr *tracer, root int) (byKind map[string]time.Duration, assemble time.Duration) {
	byKind = map[string]time.Duration{}
	for _, run := range tr.children(root) {
		if !strings.HasPrefix(run.Name, "terp.Run ") {
			continue
		}
		cells := tr.children(run.ID)
		for _, c := range cells {
			byKind[cellKind(run.Name)] += c.dur()
		}
		assemble += selfTime(run, cells)
	}
	return byKind, assemble
}

// cellKind maps an experiment's run span to the runner cell kind its
// cells have.
func cellKind(runName string) string {
	switch exp := strings.TrimPrefix(runName, "terp.Run "); exp {
	case "fig9":
		return "whisper"
	case "fig11":
		return "spec"
	default: // crash, litmus
		return exp
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
