package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestAccountsTotalsAndOverhead(t *testing.T) {
	var a Accounts
	a.Add(Base, 1000)
	a.Add(Attach, 50)
	a.Add(Detach, 30)
	a.Add(Cond, 20)
	if a.Total() != 1100 {
		t.Fatalf("total = %d", a.Total())
	}
	if got := a.Overhead(); got != 0.1 {
		t.Fatalf("overhead = %f, want 0.1", got)
	}
	if got := a.Fraction(Attach); got != 0.05 {
		t.Fatalf("attach fraction = %f", got)
	}
}

func TestAccountsZeroBase(t *testing.T) {
	// A fully empty tally is a legitimate "nothing ran" state: ratios 0.
	var empty Accounts
	if empty.Overhead() != 0 || empty.Fraction(Attach) != 0 {
		t.Fatal("empty tally must report 0, not NaN")
	}
	// Zero Base with nonzero overhead accounts means a miscredited run;
	// the ratio is undefined and must surface as NaN, not a silent 0.
	var a Accounts
	a.Add(Attach, 10)
	if got := a.Overhead(); !math.IsNaN(got) {
		t.Fatalf("Overhead with zero base = %v, want NaN", got)
	}
	if got := a.Fraction(Attach); !math.IsNaN(got) {
		t.Fatalf("Fraction(Attach) with zero base = %v, want NaN", got)
	}
	// Accounts that are themselves zero still report 0.
	if got := a.Fraction(Detach); got != 0 {
		t.Fatalf("Fraction(Detach) = %v, want 0", got)
	}
}

func TestChargeHookObservesCharges(t *testing.T) {
	th := SingleThread()
	var seen []uint64
	th.ChargeHook = func(a Account, n uint64) {
		if a == Attach {
			seen = append(seen, n)
		}
	}
	th.Charge(Attach, 40)
	th.Charge(Base, 10)
	th.DirectCharge(Attach, 5)
	if len(seen) != 2 || seen[0] != 40 || seen[1] != 5 {
		t.Fatalf("hook saw %v, want [40 5]", seen)
	}
}

func TestSwitchHookFiresOnContextSwitch(t *testing.T) {
	m := NewMachine(1, 10)
	type sw struct {
		ts     uint64
		thread int
	}
	var switches []sw
	m.SwitchHook = func(ts uint64, thread int) {
		switches = append(switches, sw{ts, thread})
	}
	for i := 0; i < 2; i++ {
		m.AddThread(func(th *Thread) {
			for j := 0; j < 5; j++ {
				th.Charge(Base, 10)
			}
		})
	}
	m.Run()
	if len(switches) < 2 {
		t.Fatalf("expected several switches, got %v", switches)
	}
	if switches[0].thread != 0 || switches[0].ts != 0 {
		t.Fatalf("first switch = %+v, want thread 0 at cycle 0", switches[0])
	}
	for i := 1; i < len(switches); i++ {
		if switches[i].thread == switches[i-1].thread {
			t.Fatalf("consecutive switch events for same thread: %v", switches)
		}
		if switches[i].ts < switches[i-1].ts {
			t.Fatalf("switch timestamps not monotone: %v", switches)
		}
	}
}

func TestAccountsMerge(t *testing.T) {
	var a, b Accounts
	a.Add(Base, 10)
	b.Add(Base, 5)
	b.Add(Rand, 7)
	a.Merge(&b)
	if a[Base] != 15 || a[Rand] != 7 {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestAccountStrings(t *testing.T) {
	names := map[Account]string{Base: "base", Attach: "attach", Detach: "detach", Rand: "rand", Cond: "cond", Other: "other"}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestSingleThreadCharge(t *testing.T) {
	th := SingleThread()
	th.Charge(Base, 100)
	th.Charge(Attach, 50)
	if th.Clock != 150 {
		t.Fatalf("clock = %d", th.Clock)
	}
	th.AdvanceTo(200, Other)
	if th.Clock != 200 || th.Costs[Other] != 50 {
		t.Fatalf("advance: clock=%d other=%d", th.Clock, th.Costs[Other])
	}
	// AdvanceTo to the past is a no-op.
	th.AdvanceTo(100, Other)
	if th.Clock != 200 {
		t.Fatal("AdvanceTo moved clock backward")
	}
}

func TestMachineMinTimeOrdering(t *testing.T) {
	m := NewMachine(1, 10)
	var order []int
	// Thread 0 does two 100-cycle steps; thread 1 does one 50-cycle
	// step then one 200-cycle step. Min-time order of step starts:
	// t0@0, t1@0 (tie by id: t0 first), then t1@50, t0@100, t1@250...
	m.AddThread(func(th *Thread) {
		order = append(order, 0)
		th.Charge(Base, 100)
		order = append(order, 0)
		th.Charge(Base, 100)
	})
	m.AddThread(func(th *Thread) {
		order = append(order, 1)
		th.Charge(Base, 50)
		order = append(order, 1)
		th.Charge(Base, 200)
	})
	end := m.Run()
	if end != 250 {
		t.Fatalf("end = %d, want 250", end)
	}
	// Step starts in min-time order: t0@0, t1@0 (tie by ID), t1@50
	// (its clock 50 < t0's 100), then t0@100.
	want := []int{0, 1, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() []uint64 {
		m := NewMachine(42, 25)
		var ends []uint64
		for i := 0; i < 4; i++ {
			i := i
			m.AddThread(func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.Charge(Base, uint64(10+i*3+j%7))
				}
				ends = append(ends, th.Clock)
			})
		}
		m.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestMachineTickMonotone(t *testing.T) {
	m := NewMachine(1, 5)
	var ticks []uint64
	m.SetTick(func(now uint64) { ticks = append(ticks, now) })
	for i := 0; i < 3; i++ {
		m.AddThread(func(th *Thread) {
			for j := 0; j < 20; j++ {
				th.Charge(Base, 7)
			}
		})
	}
	m.Run()
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("tick not strictly increasing at %d: %v", i, ticks)
		}
	}
	if len(ticks) == 0 {
		t.Fatal("tick hook never fired")
	}
}

func TestMachineTotalCosts(t *testing.T) {
	m := NewMachine(1, 100)
	m.AddThread(func(th *Thread) { th.Charge(Base, 10); th.Charge(Attach, 3) })
	m.AddThread(func(th *Thread) { th.Charge(Base, 20) })
	m.Run()
	c := m.TotalCosts()
	if c[Base] != 30 || c[Attach] != 3 {
		t.Fatalf("total costs = %v", c)
	}
}

// runPanicking runs m, returns what Run panicked with, and checks that no
// thread goroutine outlives Run.
func runPanicking(t *testing.T, m *Machine) any {
	t.Helper()
	before := runtime.NumGoroutine()
	var r any
	func() {
		defer func() { r = recover() }()
		m.Run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines after Run = %d, want <= %d (stranded sim threads?)", n, before)
	}
	return r
}

// TestMachinePanicPropagates: a panic in a thread body, or in a hook during
// the step a finishing thread takes, is re-raised by Run as "sim thread N:
// ..." only after every sibling goroutine has exited, each running its
// deferred calls but no more of its body.
func TestMachinePanicPropagates(t *testing.T) {
	t.Run("one thread", func(t *testing.T) {
		m := NewMachine(1, 100)
		m.AddThread(func(th *Thread) { panic("boom") })
		if r := runPanicking(t, m); fmt.Sprint(r) != "sim thread 0: boom" {
			t.Fatalf("recovered %v, want \"sim thread 0: boom\"", r)
		}
	})
	t.Run("four threads", func(t *testing.T) {
		m := NewMachine(1, 10)
		var unwound [4]bool
		var chargesAfter [4]int
		panicked := false
		for i := 0; i < 4; i++ {
			i := i
			m.AddThread(func(th *Thread) {
				defer func() {
					unwound[i] = true
					if i != 2 {
						// A yield while exiting after the
						// panic must not block. (One in the
						// panicking thread's own defers still
						// schedules: the panic is not recorded
						// until its body has unwound.)
						th.Charge(Base, 10)
					}
				}()
				for j := 0; ; j++ {
					if i == 2 && j == 5 {
						panicked = true
						panic("boom")
					}
					if panicked {
						chargesAfter[i]++
					}
					th.Charge(Base, 10)
				}
			})
		}
		r := runPanicking(t, m)
		if err, ok := r.(error); !ok || err.Error() != "sim thread 2: boom" {
			t.Fatalf("recovered %v, want error \"sim thread 2: boom\"", r)
		}
		for i := range unwound {
			if !unwound[i] {
				t.Errorf("thread %d did not run its deferred calls", i)
			}
			if chargesAfter[i] != 0 {
				t.Errorf("thread %d ran %d steps after the panic", i, chargesAfter[i])
			}
		}
	})
	t.Run("tick at finish", func(t *testing.T) {
		m := NewMachine(1, 10)
		m.SetTick(func(now uint64) {
			if now == 100 {
				panic("tick")
			}
		})
		m.AddThread(func(th *Thread) {
			th.DirectCharge(Base, 100)
			th.Yield()
		})
		m.AddThread(func(th *Thread) { th.Charge(Base, 5) }) // finishes, then picks thread 0 at 100
		if r := runPanicking(t, m); fmt.Sprint(r) != "sim thread 1: tick" {
			t.Fatalf("recovered %v, want \"sim thread 1: tick\"", r)
		}
	})
}

func TestMachineEmptyRun(t *testing.T) {
	m := NewMachine(1, 100)
	if end := m.Run(); end != 0 {
		t.Fatalf("empty machine end = %d", end)
	}
}

func TestYieldQuantumForcesInterleaving(t *testing.T) {
	// With a tiny quantum, a thread that charges a lot must observe the
	// other thread's progress interleaved. We detect interleaving by
	// recording the global order of quantum-sized chunks.
	m := NewMachine(1, 10)
	var seq []int
	for i := 0; i < 2; i++ {
		i := i
		m.AddThread(func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Charge(Base, 10)
				seq = append(seq, i)
			}
		})
	}
	m.Run()
	// Pure "all of thread 0 then all of thread 1" would be a failure of
	// min-time scheduling given equal charges.
	switches := 0
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1] {
			switches++
		}
	}
	if switches < 5 {
		t.Fatalf("threads did not interleave: %v", seq)
	}
}

// oracleScript runs one seeded random charge script and writes its full
// scheduler trace into h: which thread starts each step and at what clock,
// every SwitchHook call, every tick argument, and the final clocks and
// accounts. Scripts mix equal-clock ties (charges are multiples of a
// small unit), DirectCharge, explicit yields, AdvanceTo, charges longer
// than maxChargeStep, and a tick hook that stalls every thread with
// ChargeAll.
func oracleScript(h io.Writer, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	quanta := []uint64{1, 50, 200, 1000}
	m := NewMachine(seed, quanta[rng.Intn(len(quanta))])
	rec := func(tag byte, a, b uint64) {
		var buf [17]byte
		buf[0] = tag
		binary.LittleEndian.PutUint64(buf[1:], a)
		binary.LittleEndian.PutUint64(buf[9:], b)
		h.Write(buf[:])
	}
	m.SwitchHook = func(ts uint64, thread int) { rec('s', ts, uint64(thread)) }
	stallEvery := uint64(1 + rng.Intn(5))
	var ticks uint64
	m.SetTick(func(now uint64) {
		rec('t', now, 0)
		if ticks++; ticks%stallEvery == 0 {
			m.ChargeAll(Rand, uint64(rng.Intn(3))*100)
		}
	})
	type op struct {
		kind int
		a    Account
		n    uint64
	}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		script := make([]op, 1+rng.Intn(60))
		for j := range script {
			o := op{kind: rng.Intn(10), a: Account(rng.Intn(int(numAccounts)))}
			switch {
			case o.kind < 5: // Charge: a multiple of 50, often tying
				o.n = uint64(rng.Intn(9)) * 50
			case o.kind < 6: // Charge longer than one timer period
				o.n = maxChargeStep + uint64(rng.Intn(3*maxChargeStep))
			case o.kind < 8: // DirectCharge
				o.n = uint64(rng.Intn(5)) * 100
			case o.kind < 9: // Yield
			default: // AdvanceTo a point near the global low-water mark
				o.n = uint64(rng.Intn(4)) * 300
			}
			script[j] = o
		}
		m.AddThread(func(th *Thread) {
			for _, o := range script {
				rec('r', th.Clock, uint64(th.ID))
				switch {
				case o.kind < 6:
					th.Charge(o.a, o.n)
				case o.kind < 8:
					th.DirectCharge(o.a, o.n)
				case o.kind < 9:
					th.Yield()
				default:
					th.AdvanceTo(m.Now()+o.n, o.a)
				}
			}
		})
	}
	rec('e', m.Run(), uint64(n))
	for _, th := range m.Threads {
		rec('c', th.Clock, uint64(th.ID))
		for a, v := range th.Costs {
			rec('a', v, uint64(a))
		}
	}
}

// TestMachineInterleavingOracle pins the scheduler's absolute interleaving:
// the digest over 200 random scripts was recorded from the channel-and-sort
// scheduler this one replaced, so any change to resume order, tick
// arguments or switch-hook calls shows here.
func TestMachineInterleavingOracle(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 200; seed++ {
		oracleScript(h, seed)
	}
	const want = "40f3541e0017495fc81c51d4e7eb9b2cb89c56590754a65ce5224040c956e978"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("interleaving digest = %s, want %s", got, want)
	}
}

// TestMachineTickAfterSiblingsFinish: once every other thread has
// finished, each yield resumes the same thread, and the tick must still
// fire as its clock advances.
func TestMachineTickAfterSiblingsFinish(t *testing.T) {
	m := NewMachine(1, 10)
	var ticks []uint64
	m.SetTick(func(now uint64) { ticks = append(ticks, now) })
	m.AddThread(func(th *Thread) { th.Charge(Base, 10) })
	m.AddThread(func(th *Thread) {
		for j := 0; j < 10; j++ {
			th.Charge(Base, 10)
		}
	})
	m.Run()
	want := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if fmt.Sprint(ticks) != fmt.Sprint(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
}

var benchEnd uint64

// BenchmarkMachineHandoff times one scheduling step per op. cross mirrors
// the perfbench sim.yield_ns probe: four threads charging one quantum at
// a time, so every step resumes another thread. same keeps one thread far
// behind three others, so every step resumes the thread that yielded.
func BenchmarkMachineHandoff(b *testing.B) {
	b.Run("cross", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMachine(1, 200)
		for i := 0; i < 4; i++ {
			m.AddThread(func(th *Thread) {
				for j := 0; j < b.N/4+1; j++ {
					th.Charge(Base, 200)
				}
			})
		}
		b.ResetTimer()
		benchEnd = m.Run()
	})
	b.Run("same", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMachine(1, 200)
		m.AddThread(func(th *Thread) {
			for j := 0; j < b.N; j++ {
				th.Charge(Base, 200)
			}
		})
		for i := 0; i < 3; i++ {
			m.AddThread(func(th *Thread) {
				th.DirectCharge(Base, math.MaxUint64/2)
				th.Yield()
			})
		}
		b.ResetTimer()
		benchEnd = m.Run()
	})
}
