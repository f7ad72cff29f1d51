package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo is the host context printed with every run. None of it is
// gated; it lets a reader tell host noise from a regression.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Workers    int     `json:"workers"`
	RefMSStart float64 `json:"host.ref_ms.start"`
	RefMSEnd   float64 `json:"host.ref_ms.end"`
	StealS     float64 `json:"host.steal_s"`

	ticks0 cpuTicks
}

func startHost() *hostInfo {
	return &hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    1, // every workload runs one pool worker
		RefMSStart: refMS(),
		ticks0:     readCPUTicks(),
	}
}

func (h *hostInfo) finish() {
	h.RefMSEnd = refMS()
	h.StealS = (readCPUTicks().steal - h.ticks0.steal) / 100
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the host-wide "cpu" line of /proc/stat, in USER_HZ
// (1/100 s) ticks: time the vCPUs ran (user, nice, system, irq, softirq)
// and time they were runnable but the hypervisor ran another guest
// (steal). Both are zero where the file is missing.
type cpuTicks struct{ busy, steal float64 }

func readCPUTicks() cpuTicks {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(fields[i+1], 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// minScaledWindow is the shortest window whose times are scaled for
// steal. /proc/stat counts steal in 10 ms ticks, so on a 75 ms window one
// tick would move the time by 13%: more noise than it removes.
const minScaledWindow = time.Second

// unstolen is the share of the runnable time between two readings that
// the hypervisor did not steal: 1 - steal / (busy + steal). It does not
// depend on how many vCPUs were busy, since an idle vCPU adds to
// neither. Reported times of long samples are scaled by it (stolenOut),
// so that time the host gave to other guests does not read as the
// program's. Windows shorter than minScaledWindow, and windows with no
// ticks, give 1.
func unstolen(window time.Duration, from, to cpuTicks) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if window < minScaledWindow || steal <= 0 || busy+steal <= 0 {
		return 1
	}
	return 1 - steal/(busy+steal)
}

// stolenOut takes stolen time out of v, a median of samples that each
// last sampleS seconds, given the unstolen share of the window they ran
// in. Steal comes in bursts of milliseconds: a sample of a second or more
// takes in its share of them, but most samples much shorter than that
// take in none, so their median already leaves steal out, and scaling it
// would take out time it never had. In one high-steal run, scaling the
// 0.7 ms median serve job by the run's share read 0.46 ms.
func stolenOut(v, sampleS, share float64) float64 {
	if sampleS < minScaledWindow.Seconds() {
		return v
	}
	return v * share
}

// refSink keeps the calibration kernel's result live.
var refSink uint64

// refMS times a fixed calibration kernel that uses no repo code — an
// xorshift walk over a 64 KiB table — and returns the median of five
// timings in milliseconds.
func refMS() float64 {
	table := make([]uint64, 8192)
	var times []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & 8191
			table[j] += x
			x += table[(j*31)&8191]
		}
		refSink += x
		times = append(times, float64(time.Since(start))/1e6)
	}
	return median(times)
}

// rssMB reads the process's current resident set in MB (0 where
// /proc/self/statm is missing).
func rssMB() float64 {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(buf))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampleEvery is the resident-set sampling period.
const rssSampleEvery = 10 * time.Millisecond

// rssSampler polls the resident set and keeps the largest value seen
// since the last take. Whether a GC cycle ends just before or just after
// an allocation burst moves the process's one-off peak (VmHWM) by up to a
// third between runs; the median of per-pass peaks does not move.
type rssSampler struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{peak: rssMB(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := rssMB()
				s.mu.Lock()
				s.peak = max(s.peak, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// take returns the peak since the last take (at least the current
// resident set) and starts a new interval.
func (s *rssSampler) take() float64 {
	cur := rssMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := max(s.peak, cur)
	s.peak = cur
	return p
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
