// Package sim provides the deterministic timing substrate of the TERP
// reproduction: simulated per-thread clocks, a cooperative scheduler that
// interleaves simulated threads in global time order, a seeded random
// number generator, and cost accounting broken down by overhead component
// (the attach/detach/rand/cond/other breakdown of Figures 9-11).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
)

// Account names one overhead component in the execution-time breakdown.
type Account int

// The overhead components of Figures 9, 10 and 11, plus Base, which is the
// time the unprotected workload itself consumes.
const (
	// Base is workload execution time that is not protection overhead.
	Base Account = iota
	// Attach is time spent in full attach() system calls.
	Attach
	// Detach is time spent in full detach() system calls.
	Detach
	// Rand is time spent in PMO space layout randomization (including
	// the TLB invalidations it triggers).
	Rand
	// Cond is time spent executing conditional attach/detach
	// instructions that were lowered to thread permission changes.
	Cond
	// Other is remaining protection overhead: permission matrix checks,
	// extra TLB costs, blocking on Basic-semantics contention.
	Other
	numAccounts
)

// String returns the label used in the paper's figures.
func (a Account) String() string {
	switch a {
	case Base:
		return "base"
	case Attach:
		return "attach"
	case Detach:
		return "detach"
	case Rand:
		return "rand"
	case Cond:
		return "cond"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("account(%d)", int(a))
	}
}

// Accounts is a per-component cycle tally.
type Accounts [numAccounts]uint64

// Add charges n cycles to account a.
func (t *Accounts) Add(a Account, n uint64) { t[a] += n }

// Total returns the sum over all accounts.
func (t *Accounts) Total() uint64 {
	var s uint64
	for _, v := range t {
		s += v
	}
	return s
}

// Overhead returns the protection overhead relative to Base time:
// (total - base) / base. With no Base time recorded the ratio is
// undefined: it returns 0 for a fully empty tally, and NaN when other
// accounts carry cycles but Base does not — that shape means a
// miscredited run and must not be folded silently into rollups.
func (t *Accounts) Overhead() float64 {
	if t[Base] == 0 {
		if t.Total() == 0 {
			return 0
		}
		return math.NaN()
	}
	return float64(t.Total()-t[Base]) / float64(t[Base])
}

// Fraction returns account a's share of Base time (the per-component
// overhead bars of Figures 9-11 are stacked fractions of base time).
// Like Overhead, it returns NaN when Base is zero but account a is not,
// and 0 only when both are zero.
func (t *Accounts) Fraction(a Account) float64 {
	if t[Base] == 0 {
		if t[a] == 0 {
			return 0
		}
		return math.NaN()
	}
	return float64(t[a]) / float64(t[Base])
}

// Merge adds o into t.
func (t *Accounts) Merge(o *Accounts) {
	for i := range t {
		t[i] += o[i]
	}
}

// Thread is one simulated hardware thread. A Thread owns a local clock in
// cycles and a per-component cost account. Threads are advanced either
// directly (single-threaded runs) or by a Machine scheduler.
type Thread struct {
	// ID is the dense thread index within its Machine.
	ID int
	// Clock is the thread-local time in cycles.
	Clock uint64
	// Costs is the per-component cycle tally of this thread.
	Costs Accounts

	// ChargeHook, when set, observes every charge (account and cycle
	// count) before the clock advances. The observability layer uses it
	// to build per-account cycle histograms without sim importing it.
	ChargeHook func(a Account, n uint64)

	machine *Machine
	// yieldBudget counts cycles charged since the last scheduler yield;
	// the scheduler forces a yield every yieldQuantum cycles so that
	// thread interleavings track global time.
	yieldBudget uint64

	turn chan struct{}
	done bool
	body func(*Thread)
}

// maxChargeStep bounds how far a machine-scheduled thread's clock may
// advance per scheduler interaction: one hardware-timer period (1 us at
// 2.2 GHz). Without this cap, a single long computation would leapfrog
// the global low-water mark by milliseconds and the tick-driven sweep
// could not close exposure windows on time.
const maxChargeStep = 2200

// Charge advances the thread clock by n cycles on account a. On
// machine-scheduled threads, long charges are split into timer-period
// steps so the scheduler (and the hardware sweep it drives) observes
// time passing at its real granularity.
func (t *Thread) Charge(a Account, n uint64) {
	if t.ChargeHook != nil {
		t.ChargeHook(a, n)
	}
	if t.machine == nil {
		t.Clock += n
		t.Costs.Add(a, n)
		return
	}
	for n > 0 {
		step := n
		if step > maxChargeStep {
			step = maxChargeStep
		}
		t.Clock += step
		t.Costs.Add(a, step)
		n -= step
		t.yieldBudget += step
		if t.yieldBudget >= t.machine.quantum {
			t.Yield()
		}
	}
}

// AdvanceTo moves the thread clock forward to at least cycle c, charging
// the waited time to account a. It is used for blocking (Basic semantics)
// and for global stalls (randomization suspends all threads).
func (t *Thread) AdvanceTo(c uint64, a Account) {
	if c > t.Clock {
		t.Charge(a, c-t.Clock)
	}
}

// Yield hands control back to the machine scheduler, which will resume
// this thread when it again holds the minimum clock. On threads that are
// not machine-scheduled it is a no-op, and so it is on a thread unwinding
// after a sibling panicked.
func (t *Thread) Yield() {
	m := t.machine
	if m == nil || m.err != nil {
		return
	}
	t.yieldBudget = 0
	m.handoff(t)
}

// wait parks t until a scheduling step passes it the turn. A thread woken
// after a sibling panicked exits at once, running its deferred calls.
func (t *Thread) wait() {
	<-t.turn
	if t.machine.err != nil {
		runtime.Goexit()
	}
}

// run is the goroutine of a machine-scheduled thread. It waits for its
// first turn, runs the body, and passes the turn on when the body returns,
// panics or exits; a panic, including one raised by a hook during the
// final step, is recorded for Run to re-raise.
func (t *Thread) run() {
	m := t.machine
	handedOff := false
	defer func() {
		if handedOff {
			return
		}
		if r := recover(); r != nil && m.err == nil {
			m.err = fmt.Errorf("sim thread %d: %v", t.ID, r)
		}
		t.done = true
		m.handoff(t)
	}()
	t.wait()
	t.body(t)
	t.done = true
	m.handoff(t)
	handedOff = true
}

// Machine is a deterministic cooperative scheduler for simulated threads.
// It always resumes the runnable thread with the smallest local clock, so
// the interleaving of cross-thread events is a deterministic function of
// the per-thread cycle charges. Hardware "background" work (the circular
// buffer timer sweep) is driven by hooks invoked as global time advances.
type Machine struct {
	Threads []*Thread
	// Rand is the machine-wide deterministic random source.
	Rand *rand.Rand

	quantum uint64
	// finished is closed by the scheduling step that finds no unfinished
	// thread left; Run waits on it.
	finished chan struct{}
	// err is the first thread panic; once set, scheduling steps only
	// wake the remaining threads so that they exit.
	err error

	// tick is called with the new global low-water-mark time whenever
	// it advances; the TERP hardware uses it to run timer sweeps.
	tick     func(now uint64)
	lastTick uint64

	// SwitchHook, when set, observes every context switch: it is called
	// with the resumed thread's clock and ID each time the scheduler
	// hands the CPU to a different thread than last time.
	SwitchHook func(ts uint64, thread int)
	lastRun    int
}

// NewMachine creates a scheduler with the given random seed and yield
// quantum in cycles. A smaller quantum interleaves threads more finely at
// higher simulation cost; the default used by the runtime is 200 cycles.
func NewMachine(seed int64, quantum uint64) *Machine {
	if quantum == 0 {
		quantum = 200
	}
	return &Machine{
		Rand:    rand.New(rand.NewSource(seed)),
		quantum: quantum,
		lastRun: -1,
	}
}

// SetTick installs the global-time hook (at most one).
func (m *Machine) SetTick(f func(now uint64)) { m.tick = f }

// AddThread registers a simulated thread running body. Threads must all be
// added before Run is called.
func (m *Machine) AddThread(body func(*Thread)) *Thread {
	t := &Thread{
		ID:      len(m.Threads),
		machine: m,
		turn:    make(chan struct{}),
		body:    body,
	}
	m.Threads = append(m.Threads, t)
	return t
}

// Run executes all registered threads to completion under min-time
// scheduling and returns the final global time (the max of thread clocks).
// Each scheduling step runs on the goroutine of the thread that yields or
// finishes; Run makes the first step and waits for the last thread to
// finish. If a thread body panics, every other unfinished thread exits
// without resuming its body (its deferred calls run), and Run re-raises
// the panic on the caller as "sim thread N: ...".
func (m *Machine) Run() uint64 {
	if len(m.Threads) == 0 {
		return 0
	}
	m.finished = make(chan struct{})
	for _, t := range m.Threads {
		go t.run()
	}
	m.handoff(nil)
	<-m.finished
	if m.err != nil {
		panic(m.err)
	}
	var end uint64
	for _, t := range m.Threads {
		if t.Clock > end {
			end = t.Clock
		}
	}
	return end
}

// handoff is one scheduling step, run on the goroutine of from, the thread
// that yields or finishes (nil for Run's first step). It picks the
// unfinished thread with the minimum clock, ties broken by ID, runs the
// tick and switch-hook bookkeeping, and passes it the turn. Resuming the
// yielding thread itself costs no goroutine switch; otherwise from parks
// until a later step picks it. After a panic it only wakes the next
// unfinished thread, which exits and takes the next step in turn.
func (m *Machine) handoff(from *Thread) {
	var next *Thread
	for _, t := range m.Threads {
		if !t.done && (next == nil || t.Clock < next.Clock) {
			next = t
		}
	}
	if next == nil {
		close(m.finished)
		return
	}
	if m.err == nil {
		if m.tick != nil && next.Clock > m.lastTick {
			m.lastTick = next.Clock
			m.tick(m.lastTick)
		}
		if m.SwitchHook != nil && next.ID != m.lastRun {
			m.SwitchHook(next.Clock, next.ID)
		}
		m.lastRun = next.ID
		if next == from {
			return
		}
	}
	next.turn <- struct{}{}
	if from != nil && !from.done {
		from.wait()
	}
}

// Now returns the minimum clock across threads — the global simulated time
// up to which all events are final. With a single thread it is that
// thread's clock.
func (m *Machine) Now() uint64 {
	var now uint64
	first := true
	for _, t := range m.Threads {
		if !t.done && (first || t.Clock < now) {
			now = t.Clock
			first = false
		}
	}
	return now
}

// TotalCosts sums the cost accounts of every thread.
func (m *Machine) TotalCosts() Accounts {
	var a Accounts
	for _, t := range m.Threads {
		a.Merge(&t.Costs)
	}
	return a
}

// SingleThread returns a stand-alone thread that is not scheduler-managed,
// for single-threaded simulations where no interleaving is needed.
func SingleThread() *Thread { return &Thread{} }

// DirectCharge advances the thread clock without a scheduler yield. It is
// used where a yield must not happen: hardware-initiated work (sweep
// detaches, randomization stalls) charged to threads other than the
// running one, and the steps of an access that must stay atomic with
// respect to the scheduler.
func (t *Thread) DirectCharge(a Account, n uint64) {
	if t.ChargeHook != nil {
		t.ChargeHook(a, n)
	}
	t.Clock += n
	t.Costs.Add(a, n)
}

// ChargeAll charges n cycles on account a to every unfinished thread —
// the global suspension randomization requires (all threads stall while
// TLBs are shot down and the page table updated).
func (m *Machine) ChargeAll(a Account, n uint64) {
	for _, t := range m.Threads {
		if !t.done {
			t.DirectCharge(a, n)
		}
	}
}
