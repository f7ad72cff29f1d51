package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/service"
)

// serveSetups is how many times the serve workload boots a server; the
// last one is kept and setup_s is the median. One boot with its warm-up
// cycle takes about 5 ms on a 2-vCPU Xeon.
const serveSetups = 41

// serveMix is the fixed cycle of tiny jobs one client submits:
// pure-analysis table5 and semantics plus a small litmus matrix, so the
// HTTP, JSON, scheduler, pool and ledger layers do most of the work.
// Parallel 1 matches the server's single pool worker for in-process
// runs; the server itself ignores it.
func serveMix(seed int64) []terp.ExperimentSpec {
	return []terp.ExperimentSpec{
		{Name: "table5", Opts: terp.ExpOpts{Seed: seed}, Parallel: 1},
		{Name: "semantics", Opts: terp.ExpOpts{Seed: seed}, Parallel: 1},
		{Name: "litmus", Opts: terp.ExpOpts{Ops: 1000, Seed: seed}, Parallel: 1},
	}
}

// terpd is one in-process server: service.New over httptest, one pool
// worker, with the run ledger on in a temp dir.
type terpd struct {
	dir    string
	led    *ledger.Ledger
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
	jobs   int // jobs submitted; names each job's trace
}

func bootTerpd(tmp string) (*terpd, error) {
	dir, err := os.MkdirTemp(tmp, "terpd-")
	if err != nil {
		return nil, fmt.Errorf("ledger dir: %w", err)
	}
	led, err := ledger.Open(filepath.Join(dir, "runs.jsonl"), ledger.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := service.New(service.Config{Workers: 1, Ledger: led})
	d := &terpd{dir: dir, led: led, srv: srv, hs: httptest.NewServer(srv.Handler())}
	d.client = d.hs.Client()
	// A job that never finishes fails the run instead of hanging it.
	d.client.Timeout = time.Minute
	resp, err := d.client.Get(d.hs.URL + "/healthz")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness only needs the status
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return d, nil
}

// close stops the HTTP server, drains the scheduler and removes the
// ledger dir.
func (d *terpd) close() {
	d.hs.Close()
	d.srv.Close()
	d.led.Close()
	os.RemoveAll(d.dir)
}

// job is one served job's outcome.
type job struct {
	latency             time.Duration
	submit, wait, fetch time.Duration
	err                 error
	body                []byte
}

// run submits one spec, waits for its terminal server-sent event (no
// polling, which would quantise latency), fetches the grid and compares
// it with want. Spans go into tr under one trace per job.
func (d *terpd) run(tr *tracer, spec []byte, want []byte) job {
	var j job
	start := time.Now()
	d.jobs++
	root := tr.begin(fmt.Sprintf("job-%d", d.jobs), "job", 0)
	defer tr.end(root)

	var st service.Status
	j.submit = tr.timed("service.submit", root, func() {
		resp, err := d.client.Post(d.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			j.err = fmt.Errorf("submit: %w", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			j.err = fmt.Errorf("submit: status %d", resp.StatusCode)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			j.err = fmt.Errorf("submit: decoding status: %w", err)
		}
	})
	if j.err != nil {
		return j
	}
	j.wait = tr.timed("service.wait", root, func() { j.err = d.waitTerminal(st.ID) })
	if j.err != nil {
		return j
	}
	j.fetch = tr.timed("service.grid", root, func() {
		resp, err := d.client.Get(d.hs.URL + "/v1/jobs/" + st.ID + "/grid")
		if err != nil {
			j.err = fmt.Errorf("grid: %w", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			j.err = fmt.Errorf("grid: status %d", resp.StatusCode)
			return
		}
		j.body, j.err = io.ReadAll(resp.Body)
	})
	if j.err == nil && !bytes.Equal(j.body, want) {
		j.err = fmt.Errorf("job %s: served grid differs from the in-process terp.Run bytes", st.ID)
	}
	j.latency = time.Since(start)
	return j
}

// waitTerminal reads the job's event stream until a terminal state and
// fails unless that state is done.
func (d *terpd) waitTerminal(id string) error {
	resp, err := d.client.Get(d.hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: decoding: %w", err)
		}
		if !ev.State.Terminal() {
			continue
		}
		// Drain the stream's closing status so the connection is reused.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain
		if ev.State != service.StateDone {
			return fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Error)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("job %s: event stream ended without a terminal state", id)
}

// serveWorkload drives an in-process terpd from one closed-loop client.
type serveWorkload struct {
	tmp   string
	specs []terp.ExperimentSpec
	wire  [][]byte // each spec's wire document
	want  [][]byte // each spec's in-process grid bytes
	d     *terpd
}

func newServeWorkload(seed int64, tmp string) (*serveWorkload, error) {
	w := &serveWorkload{tmp: tmp, specs: serveMix(seed)}
	for _, spec := range w.specs {
		doc, err := spec.JSON()
		if err != nil {
			return nil, err
		}
		g, err := terp.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("in-process %s: %w", spec.Name, err)
		}
		buf, err := g.JSON()
		if err != nil {
			return nil, err
		}
		w.wire = append(w.wire, doc)
		w.want = append(w.want, buf)
	}
	return w, nil
}

// setup boots the server serveSetups times, each boot followed by one
// warm-up cycle of the job mix, and keeps the last server.
func (w *serveWorkload) setup() (float64, error) {
	var times []float64
	for i := 0; i < serveSetups; i++ {
		if w.d != nil {
			w.d.close()
			w.d = nil
		}
		start := time.Now()
		d, err := bootTerpd(w.tmp)
		if err != nil {
			return 0, err
		}
		w.d = d
		var pr passResult
		if w.cycle(nil, &pr, nil); len(pr.problems) > 0 {
			return 0, fmt.Errorf("warm-up cycle: %s", strings.Join(pr.problems, "; "))
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// passCycles is how many cycles of the job mix one pass runs: about
// 1.2 s on a 2-vCPU Xeon, so that a pass, like a simulation pass, lasts
// long enough to take in its share of steal and be scaled for it (see
// stolenOut). A 5 ms cycle cannot be: in two runs that lost most of
// their time to steal, the median cycle read three times its usual time.
const passCycles = 250

// pass runs passCycles cycles of the job mix. Every served grid is
// compared with its in-process bytes, so all cycles serve the same
// bytes, and the pass digest covers the first cycle's.
func (w *serveWorkload) pass(tr *tracer) passResult {
	var pr passResult
	h := sha256.New()
	start := time.Now()
	w.cycle(tr, &pr, h)
	for c := 1; c < passCycles; c++ {
		w.cycle(tr, &pr, nil)
	}
	pr.wall = time.Since(start)
	pr.digest = hex.EncodeToString(h.Sum(nil))
	return pr
}

// cycle submits each job of the mix once, adding the outcomes to pr and,
// when h is non-nil, the served grids to h.
func (w *serveWorkload) cycle(tr *tracer, pr *passResult, h hash.Hash) {
	for i := range w.wire {
		pr.ops++
		j := w.d.run(tr, w.wire[i], w.want[i])
		if j.err != nil {
			pr.failed++
			pr.problems = append(pr.problems, j.err.Error())
			continue
		}
		if h != nil {
			h.Write(j.body)
		}
		pr.jobs++
		pr.latency = append(pr.latency, float64(j.latency)/1e6)
	}
}

// reference runs the job mix in process, for the runner/terp layer
// metrics of the traced run.
func (w *serveWorkload) reference(tr *tracer) passResult { return runSpecs(tr, "reference", w.specs) }

func (w *serveWorkload) close() {
	if w.d != nil {
		w.d.close()
	}
}
