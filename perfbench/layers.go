package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	terp "repro"
	"repro/internal/crash"
	"repro/internal/ir"
	"repro/internal/ledger"
	"repro/internal/litmus"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/speckit"
	"repro/internal/whisper"
)

// The layer sweep is the same fixed set of probes on every workload, so
// a layer number compares across workloads and commits. Each probe calls
// one layer's public functions from here, inside a span, with small
// fixed inputs.

// Probe sizes.
const (
	yieldsPerThread = 50_000
	accessOps       = 200_000
	attachPairs     = 20_000
	tlbLookups      = 2_000_000
	cacheAccesses   = 2_000_000
	persistLines    = 100_000
	imageLines      = 4096
	images          = 20
	sweepWhisperOps = 20_000
	sweepRepeats    = 3
	ledgerAppends   = 2000
	serveCycles     = 30
)

// sweep collects the per-layer metrics and any correctness problems.
type sweep struct {
	tr       *tracer
	root     int
	seed     int64
	tmp      string
	m        metricSet
	problems []string

	cycles  uint64        // simulated cycles of the simulation probes
	simWall time.Duration // host time of those probes
}

// sweepProbes lists the probes in run order.
var sweepProbes = []func(*sweep) error{
	(*sweep).simYield, (*sweep).interpKernels, (*sweep).compiler, (*sweep).core,
	(*sweep).paging, (*sweep).nvm, (*sweep).whisper, (*sweep).crash,
	(*sweep).litmus, (*sweep).service, (*sweep).ledger,
}

// startProcs is the process's GOMAXPROCS before any workload changed
// it; the sweep runs under it whatever the workload.
var startProcs = runtime.GOMAXPROCS(0)

func layerSweep(tr *tracer, seed int64, tmp string) (metricSet, []string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(startProcs))
	s := &sweep{tr: tr, root: tr.begin("sweep", "sweep", 0), seed: seed, tmp: tmp, m: metricSet{}}
	for _, probe := range sweepProbes {
		if err := probe(s); err != nil {
			s.problems = append(s.problems, err.Error())
		}
	}
	tr.end(s.root)
	s.m.set("sim.cycles", float64(s.cycles), "count")
	s.m.set("sim.mcycles_per_s", float64(s.cycles)/s.simWall.Seconds()/1e6, "Mcycles/s")
	return s.m, s.problems
}

func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	return float64(d) / float64(ops) / float64(unit)
}

// simYield times scheduler handoffs: four threads that each charge one
// quantum at a time, so every charge yields.
func (s *sweep) simYield() error {
	m := sim.NewMachine(s.seed, 200)
	for i := 0; i < 4; i++ {
		m.AddThread(func(t *sim.Thread) {
			for j := 0; j < yieldsPerThread; j++ {
				t.Charge(sim.Base, 200)
			}
		})
	}
	d := s.tr.timed("sim.Machine.Run", s.root, func() { m.Run() })
	s.m.set("sim.yield_ns", perOp(d, 4*yieldsPerThread, time.Nanosecond), "ns")
	return nil
}

// interpKernels runs each SPEC kernel single-threaded and unprotected
// through the linked interpreter (median of sweepRepeats).
func (s *sweep) interpKernels() error {
	cfg := params.NewConfig(params.Unprotected, 40)
	cfg.Seed = s.seed
	opt, insert := speckit.InsertOptions(cfg)
	for _, k := range speckit.Kernels() {
		l, err := runner.DefaultCache.Linked(k, 1, insert, opt)
		if err != nil {
			return fmt.Errorf("interp probe %s: %w", k.Name, err)
		}
		var times []float64
		for r := 0; r < sweepRepeats; r++ {
			var res terp.Result
			d := s.tr.timed("speckit.RunLinked "+k.Name, s.root, func() {
				res, err = speckit.RunLinked(cfg, k, l, speckit.RunOpts{Threads: 1, Scale: 1})
			})
			if err != nil {
				return fmt.Errorf("interp probe %s: %w", k.Name, err)
			}
			times = append(times, float64(d)/1e6)
			s.cycles += res.Costs.Total()
			s.simWall += d
		}
		s.m.set("interp.kernel_ms."+k.Name, median(times), "ms")
	}
	return nil
}

// compiler builds and links every distinct fig11 program from scratch.
func (s *sweep) compiler() error {
	type key struct {
		kernel string
		insert bool
		opt    any
	}
	seen := map[key]bool{}
	var build, link time.Duration
	for _, k := range speckit.Kernels() {
		for _, c := range fig11Configs {
			opt, insert := speckit.InsertOptions(params.NewConfig(c.scheme, c.ew))
			if seen[key{k.Name, insert, opt}] {
				continue
			}
			seen[key{k.Name, insert, opt}] = true
			var prog *ir.Program
			var err error
			build += s.tr.timed("speckit.Build "+k.Name, s.root, func() { prog, err = speckit.Build(k, 1, insert, opt) })
			if err != nil {
				return fmt.Errorf("compiler probe %s: %w", k.Name, err)
			}
			link += s.tr.timed("ir.Link "+k.Name, s.root, func() { _, err = ir.Link(prog) })
			if err != nil {
				return fmt.Errorf("link probe %s: %w", k.Name, err)
			}
		}
	}
	s.m.set("compiler.build_ms", float64(build)/1e6, "ms")
	s.m.set("ir.link_ms", float64(link)/1e6, "ms")
	return nil
}

// core times protected loads and stores and attach/detach pairs through
// terp.System.
func (s *sweep) core() error {
	sys, err := terp.NewSystem(terp.Options{Scheme: terp.TT, Seed: s.seed})
	if err != nil {
		return err
	}
	p, err := sys.Create("probe", 1<<20)
	if err != nil {
		return err
	}
	if err := sys.Attach(p, terp.ReadWrite); err != nil {
		return err
	}
	o, err := p.Alloc(64)
	if err != nil {
		return err
	}
	d := s.tr.timed("System.Store", s.root, func() {
		for i := 0; i < accessOps && err == nil; i++ {
			err = sys.Store(o, uint64(i))
		}
	})
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	s.m.set("core.store_ns", perOp(d, accessOps, time.Nanosecond), "ns")
	d = s.tr.timed("System.Load", s.root, func() {
		for i := 0; i < accessOps && err == nil; i++ {
			_, err = sys.Load(o)
		}
	})
	if err != nil {
		return fmt.Errorf("load probe: %w", err)
	}
	s.m.set("core.load_ns", perOp(d, accessOps, time.Nanosecond), "ns")

	for _, sc := range []struct {
		name   string
		scheme terp.Scheme
	}{{"mm", terp.MM}, {"tt", terp.TT}} {
		sys, err := terp.NewSystem(terp.Options{Scheme: sc.scheme, Seed: s.seed})
		if err != nil {
			return err
		}
		p, err := sys.Create("probe", 1<<20)
		if err != nil {
			return err
		}
		d := s.tr.timed("System.Attach+Detach "+sc.name, s.root, func() {
			for i := 0; i < attachPairs && err == nil; i++ {
				if err = sys.Attach(p, terp.ReadWrite); err == nil {
					err = sys.Detach(p)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("attach/detach probe %s: %w", sc.name, err)
		}
		s.m.set("core.attach_detach_us."+sc.name, perOp(d, attachPairs, time.Microsecond), "us")
	}
	return nil
}

// paging times L1-hitting TLB lookups over a small ring of pages.
func (s *sweep) paging() error {
	t := paging.NewTLB()
	const pages = 16
	for p := uint64(0); p < pages; p++ {
		t.Lookup(p << params.PageShift)
	}
	var va uint64
	d := s.tr.timed("TLB.Lookup", s.root, func() {
		for i := 0; i < tlbLookups; i++ {
			t.Lookup(va)
			va = (va + params.PageSize) % (pages << params.PageShift)
		}
	})
	s.m.set("paging.tlb_lookup_ns", perOp(d, tlbLookups, time.Nanosecond), "ns")
	return nil
}

// nvm times the cache model on hit- and miss-heavy patterns, the persist
// path per 64 B line, and crash-image materialisation.
func (s *sweep) nvm() error {
	c := nvm.NewCache(32*1024, 8, 64)
	var a uint64
	d := s.tr.timed("Cache.Access hit", s.root, func() {
		for i := 0; i < cacheAccesses; i++ {
			c.Access(a)
			a = (a + 64) % (16 * 1024)
		}
	})
	s.m.set("nvm.cache_access_ns.hit", perOp(d, cacheAccesses, time.Nanosecond), "ns")
	c = nvm.NewCache(32*1024, 8, 64)
	a = 0
	d = s.tr.timed("Cache.Access miss", s.root, func() {
		for i := 0; i < cacheAccesses; i++ {
			c.Access(a)
			a = (a + 4096 + 64) % (1 << 30)
		}
	})
	s.m.set("nvm.cache_access_ns.miss", perOp(d, cacheAccesses, time.Nanosecond), "ns")

	dev := nvm.NewDevice(nvm.NVM, 64<<20)
	dev.EnablePersistBuffer(64)
	line := make([]byte, 64)
	var err error
	d = s.tr.timed("Device.WriteAt+Flush+Fence", s.root, func() {
		for i := 0; i < persistLines && err == nil; i++ {
			off := uint64(i) * 64 % (32 << 20)
			line[0] = byte(i)
			err = dev.WriteAt(line, off)
			dev.Flush(off, 64)
			dev.Fence()
		}
	})
	if err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	s.m.set("nvm.persist_line_ns", perOp(d, persistLines, time.Nanosecond), "ns")

	// Half the lines flushed but unfenced, half only dirty: every image
	// walks the full pending set.
	dev = nvm.NewDevice(nvm.NVM, 64<<20)
	dev.EnablePersistBuffer(64)
	for i := uint64(0); i < imageLines; i++ {
		line[0] = byte(i)
		if err := dev.WriteAt(line, i*64); err != nil {
			return fmt.Errorf("crash-image probe: %w", err)
		}
		if i%2 == 0 {
			dev.Flush(i*64, 64)
		}
	}
	d = s.tr.timed("Device.CrashImage", s.root, func() {
		for i := 0; i < images; i++ {
			dev.CrashImage(func(line uint64) bool { return line%3 == 0 })
		}
	})
	s.m.set("nvm.crash_image_ms", perOp(d, images, time.Millisecond), "ms")
	return nil
}

// whisper runs each WHISPER workload once under TT at sweepWhisperOps,
// timed, and once more with obs metrics for the access-path counts.
func (s *sweep) whisper() error {
	counts := map[string]string{
		"paging.tlb_misses":    "paging/tlb/misses",
		"core.attach_syscalls": "core/attach_syscalls",
		"core.cond_ops":        "core/cond_ops",
		"terphw.sweep_rand":    "terphw/sweep_rand",
	}
	total := map[string]uint64{}
	for _, mk := range whisper.All() {
		name := mk().Name()
		cell := runner.Cell{
			Exp: "perfbench", Label: "TT(40us)", Kind: runner.Whisper, Workload: name,
			Scheme: params.TT, EWMicros: 40, Seed: s.seed, Ops: sweepWhisperOps,
		}
		var res runner.CellResult
		var err error
		d := s.tr.timed("runner.RunCell "+name, s.root, func() { res, err = runner.RunCell(cell, nil) })
		if err != nil {
			return fmt.Errorf("whisper probe %s: %w", name, err)
		}
		s.cycles += res.Result.Costs.Total()
		s.simWall += d
		s.m.set("whisper.op_us."+name, perOp(d, sweepWhisperOps, time.Microsecond), "us")
		res, err = runner.RunCellObs(cell, nil, obs.Config{Metrics: true})
		if err != nil || res.Obs == nil {
			return fmt.Errorf("whisper obs probe %s: %v", name, err)
		}
		for metric, counter := range counts {
			total[metric] += res.Obs.Metrics.Get(counter)
		}
	}
	for metric := range counts {
		s.m.set(metric, float64(total[metric]), "count")
	}
	return nil
}

// crash injects crashes into two fixed specs: strict fence points on
// txnpairs (cross-checked against the exhaustive enumerator) and
// adversarial random points on hashmap.
func (s *sweep) crash() error {
	specs := []crash.Spec{
		{Workload: "txnpairs", Ops: 120, Seed: s.seed, Policy: crash.FencePolicy, Every: 23, Points: 8, CrossCheck: true},
		{Workload: "hashmap", Ops: 120, Seed: s.seed, Policy: crash.RandomPolicy, Points: 8, Adversarial: true},
	}
	var wall time.Duration
	var points, failures int
	for _, spec := range specs {
		var rep *crash.Report
		var err error
		wall += s.tr.timed("crash.Run "+spec.Workload, s.root, func() { rep, err = crash.Run(spec) })
		if err != nil {
			return fmt.Errorf("crash probe %s: %w", spec.Workload, err)
		}
		points += len(rep.Points)
		failures += rep.Failures
	}
	s.m.set("crash.point_ms", perOp(wall, points, time.Millisecond), "ms")
	s.m.set("crash.points", float64(points), "count")
	s.m.set("crash.failures", float64(failures), "count")
	if failures > 0 {
		return fmt.Errorf("crash probe: %d points failed recovery", failures)
	}
	return nil
}

// litmus runs the named suite plus a generated one through the
// exhaustive enumerator (median of sweepRepeats).
func (s *sweep) litmus() error {
	progs := append(litmus.Named(), litmus.Generate(s.seed, 20)...)
	var times []float64
	var rep *litmus.Report
	for r := 0; r < sweepRepeats; r++ {
		var err error
		d := s.tr.timed("litmus.RunSuite", s.root, func() {
			rep, err = litmus.RunSuite("perfbench", progs, litmus.DefaultAllowlist())
		})
		if err != nil {
			return fmt.Errorf("litmus probe: %w", err)
		}
		times = append(times, float64(d)/1e6/float64(rep.Programs))
	}
	s.m.set("litmus.program_ms", median(times), "ms")
	s.m.set("litmus.modelstates", float64(rep.ModelStates), "count")
	s.m.set("litmus.violations", float64(rep.Violations), "count")
	if rep.Violations > 0 {
		return fmt.Errorf("litmus probe: %d violations", rep.Violations)
	}
	return nil
}

// service boots a terpd and drives serveCycles cycles of the serve job
// mix, splitting each job into submit, wait and grid fetch, and compares
// job latency with an in-process terp.Run of the same spec.
func (s *sweep) service() error {
	w, err := newServeWorkload(s.seed, s.tmp)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	d, err := bootTerpd(s.tmp)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	defer d.close()
	var submit, wait, fetch []float64
	lat := make([][]float64, len(w.specs))
	inproc := make([][]float64, len(w.specs))
	for c := 0; c < serveCycles; c++ {
		for i := range w.specs {
			j := d.run(s.tr, w.wire[i], w.want[i])
			if j.err != nil {
				return fmt.Errorf("service probe: %w", j.err)
			}
			submit = append(submit, float64(j.submit)/1e6)
			wait = append(wait, float64(j.wait)/1e6)
			fetch = append(fetch, float64(j.fetch)/1e6)
			lat[i] = append(lat[i], float64(j.latency)/1e6)
			dur := s.tr.timed("in-process "+w.specs[i].Name, s.root, func() { _, err = terp.Run(w.specs[i]) })
			if err != nil {
				return fmt.Errorf("service probe in-process %s: %w", w.specs[i].Name, err)
			}
			inproc[i] = append(inproc[i], float64(dur)/1e6)
		}
	}
	var overhead float64
	for i := range w.specs {
		overhead += median(lat[i]) - median(inproc[i])
	}
	s.m.set("service.submit_ms", median(submit), "ms")
	s.m.set("service.wait_ms", median(wait), "ms")
	s.m.set("service.grid_ms", median(fetch), "ms")
	s.m.set("service.overhead_ms", overhead/float64(len(w.specs)), "ms")
	return nil
}

// ledger appends run records of one finished grid to a fresh ledger.
func (s *sweep) ledger() error {
	spec := terp.ExperimentSpec{Name: "litmus", Opts: terp.ExpOpts{Ops: 1000, Seed: s.seed}}
	g, err := terp.Run(spec)
	if err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	dir, err := os.MkdirTemp(s.tmp, "ledger-")
	if err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	defer os.RemoveAll(dir)
	led, err := ledger.Open(filepath.Join(dir, "runs.jsonl"), ledger.Options{})
	if err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	defer led.Close()
	rec := ledger.FromGrid("perfbench", spec, g)
	d := s.tr.timed("Ledger.Append", s.root, func() {
		for i := 0; i < ledgerAppends && err == nil; i++ {
			err = led.Append(rec)
		}
	})
	if err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	s.m.set("ledger.append_us", perOp(d, ledgerAppends, time.Microsecond), "us")
	return nil
}
