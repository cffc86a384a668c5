package emulator

import (
	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"

	"fmt"
	"math"
	"testing"
)

// chargeSummer accumulates EvCharge energy per class and counts the
// operation events, for checking the stream against the Result counters.
type chargeSummer struct {
	byClass  map[ChargeClass]float64
	saves    int
	restores int
	failures int
	sleeps   int
}

func newChargeSummer() *chargeSummer {
	return &chargeSummer{byClass: map[ChargeClass]float64{}}
}

func (cs *chargeSummer) Event(e Event) {
	switch e.Kind {
	case EvCharge:
		cs.byClass[e.Class] += e.Energy
	case EvSave:
		cs.saves++
	case EvRestore:
		cs.restores++
	case EvPowerFailure:
		cs.failures++
	case EvSleepStart:
		cs.sleeps++
	}
}

// TestChargeEventsSumToLedger pins the core observer guarantee: every
// draw from the capacitor emits exactly one EvCharge, so the per-class
// sums rebuild the energy ledger bit-for-bit (same summation order).
func TestChargeEventsSumToLedger(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, cfg Config) (*Result, error)
		eb   float64
	}{
		{"wait", func(t *testing.T, cfg Config) (*Result, error) {
			return Run(loopProgram(t, 100, 1, true), cfg)
		}, 400},
		{"rollback", func(t *testing.T, cfg Config) (*Result, error) {
			return Run(ratchetLoopProgram(t, 200), cfg)
		}, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := newChargeSummer()
			cfg := baseCfg()
			cfg.Intermittent = true
			cfg.EB = tc.eb
			cfg.Observer = cs
			res, err := tc.run(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Completed {
				t.Fatalf("verdict = %v", res.Verdict)
			}
			l := res.Energy
			checks := []struct {
				name      string
				got, want float64
			}{
				{"computation", cs.byClass[ChargeCompute] + cs.byClass[ChargeVMAccess] + cs.byClass[ChargeNVMAccess], l.Computation},
				{"save", cs.byClass[ChargeSave], l.Save},
				{"restore", cs.byClass[ChargeRestore], l.Restore},
				{"re-execution", cs.byClass[ChargeReexec], l.Reexecution},
			}
			for _, c := range checks {
				if math.Abs(c.got-c.want) > 1e-9 {
					t.Errorf("%s: events sum to %.9f nJ, ledger has %.9f nJ", c.name, c.got, c.want)
				}
			}
			if cs.saves != res.Saves {
				t.Errorf("save events = %d, Result.Saves = %d", cs.saves, res.Saves)
			}
			if cs.restores != res.Restores {
				t.Errorf("restore events = %d, Result.Restores = %d", cs.restores, res.Restores)
			}
			if cs.failures != res.PowerFailures {
				t.Errorf("failure events = %d, Result.PowerFailures = %d", cs.failures, res.PowerFailures)
			}
			if cs.sleeps != res.Sleeps {
				t.Errorf("sleep events = %d, Result.Sleeps = %d", cs.sleeps, res.Sleeps)
			}
		})
	}
}

// TestRestoresCounter checks the new Result.Restores counter: zero for
// a checkpoint-free continuous run, and on an intermittent wait-style
// run every sleep wake-up restores, so the counter at least matches the
// sleep count.
func TestRestoresCounter(t *testing.T) {
	m := loopProgram(t, 10, -1, false)
	entry := m.FuncByName("main").Entry()
	entry.Instrs = entry.Instrs[1:] // drop the boot checkpoint
	res, err := Run(m, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Restores != 0 {
		t.Errorf("continuous run restores = %d, want 0", res.Restores)
	}

	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 400
	res, err = Run(loopProgram(t, 100, 1, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Restores == 0 || res.Restores < res.Sleeps {
		t.Errorf("restores = %d, want >= sleeps (%d)", res.Restores, res.Sleeps)
	}
}

// ratchetCallProgram is ratchetLoopProgram with the loop body moved
// into a helper, so the rollback checkpoint snapshots a two-frame stack
// (main in its loop body, step past the checkpoint).
func ratchetCallProgram(t testing.TB, n int) *ir.Module {
	t.Helper()
	m := &ir.Module{Name: "ratchetcall"}
	acc := m.NewGlobal("acc", 1)
	idx := m.NewGlobal("i", 1)

	step := m.NewFunc("step", nil, false)
	sb := ir.NewBuilder(step)
	a := sb.Load(acc)
	i := sb.Load(idx)
	a2 := sb.Bin(ir.OpAdd, a, i)
	i2 := sb.Bin(ir.OpAdd, i, sb.Const(1))
	sb.Emit(&ir.Checkpoint{ID: 1, Kind: ir.CkRollback, RegsOnly: true})
	sb.Store(acc, a2)
	sb.Store(idx, i2)
	sb.Ret()

	f := m.NewFunc("main", nil, false)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	done := f.NewBlock("done")
	b := ir.NewBuilder(f).At(entry)
	b.Emit(&ir.Checkpoint{ID: 0, Kind: ir.CkRollback, RegsOnly: true})
	zero := b.Const(0)
	b.Store(acc, zero)
	b.Store(idx, zero)
	b.Jmp(head)
	b.At(head)
	b.Br(b.Bin(ir.OpLt, b.Load(idx), b.Const(int64(n))), body, done)
	b.At(body)
	b.Call(step)
	b.Jmp(head)
	b.At(done)
	b.Out(b.Load(acc))
	b.Ret()

	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

// TestResumeMarksStackReplay pins the one semantic a block-counting
// observer relies on under power failures: after a snapshot restore the
// restored call stack is replayed as Resume-marked entries — the frames
// saved at the checkpoint, outermost first — while every other entry is
// a real control transfer (a call into a function's entry block, or a
// branch to a successor of the frame's current block). An observer that
// skips Resume entries therefore sees each executed block entry once.
func TestResumeMarksStackReplay(t *testing.T) {
	var (
		stack, saved, replay []level
		failed               bool
		replays, deepest     int
	)
	checkReplay := func() {
		if len(replay) == 0 {
			return
		}
		replays++
		deepest = max(deepest, len(replay))
		if fmt.Sprint(replay) != fmt.Sprint(saved) {
			t.Errorf("replayed stack %v, saved at the checkpoint %v", replay, saved)
		}
		stack, replay = replay, nil
	}
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1500
	cfg.Observer = observerFunc(func(e Event) {
		switch e.Kind {
		case EvPowerFailure:
			failed = true
			stack = nil
		case EvSave:
			saved = append(saved[:0], stack...)
		case EvBlockEnter:
			if e.Resume {
				if !failed || !e.Call {
					t.Errorf("Resume entry %s.%s outside a post-failure replay (call=%v)", e.Fn.Name, e.Block.Name, e.Call)
				}
				replay = append(replay, level{e.Fn, e.Block})
				return
			}
			checkReplay()
			failed = false
			if e.Call {
				if e.Block != e.Fn.Entry() {
					t.Errorf("call entry into %s.%s, not the entry block", e.Fn.Name, e.Block.Name)
				}
				stack = append(stack, level{e.Fn, e.Block})
				return
			}
			top := &stack[len(stack)-1]
			if top.fn != e.Fn || !isSuccessor(top.block, e.Block) {
				t.Errorf("entry %s.%s is no branch from %s.%s", e.Fn.Name, e.Block.Name, top.fn.Name, top.block.Name)
			}
			top.block = e.Block
		case EvFuncReturn:
			checkReplay()
			stack = stack[:len(stack)-1]
		}
	})
	res, err := Run(ratchetCallProgram(t, 200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.PowerFailures == 0 || replays == 0 {
		t.Fatalf("%d power failures, %d stack replays: the Resume path was not exercised", res.PowerFailures, replays)
	}
	if deepest < 2 {
		t.Errorf("deepest stack replay has %d frames; want the two-frame stack of a failure inside step", deepest)
	}
}

// level is one mirrored call-stack frame: a function and its current
// block.
type level struct {
	fn    *ir.Func
	block *ir.Block
}

func (l level) String() string { return l.fn.Name + "." + l.block.Name }

func isSuccessor(from, to *ir.Block) bool {
	for _, s := range from.Succs() {
		if s == to {
			return true
		}
	}
	return false
}

type observerFunc func(Event)

func (f observerFunc) Event(e Event) { f(e) }

func TestMultiObserverNilPath(t *testing.T) {
	if MultiObserver() != nil {
		t.Error("MultiObserver() != nil")
	}
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver(nil, nil) != nil")
	}
	single := observerFunc(func(Event) {})
	if got := MultiObserver(nil, single); got == nil {
		t.Error("single observer lost")
	}
}

// TestNilObserverNoPerInstructionAllocs guards the fast path: with no
// observer configured, growing the instruction count must not grow the
// allocation count — events are never constructed. A small constant
// difference (map growth inside the machine) is tolerated; a per-
// instruction allocation would show up as thousands. The same holds
// with a counter set attached: counting bumps preallocated slices.
func TestNilObserverNoPerInstructionAllocs(t *testing.T) {
	small := loopProgram(t, 100, -1, false)
	large := loopProgram(t, 5000, -1, false)
	for _, counted := range []bool{false, true} {
		run := func(m *ir.Module) func() {
			cfg := baseCfg()
			if counted {
				cfg.Counts = NewCounts(dispatch.For(m, cfg.Model))
			}
			return func() {
				if _, err := Run(m, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		allocsSmall := testing.AllocsPerRun(5, run(small))
		allocsLarge := testing.AllocsPerRun(5, run(large))
		if allocsLarge > allocsSmall+32 {
			t.Errorf("counted=%v: allocations grow with run length: %d instructions → %.0f allocs, %d instructions → %.0f allocs",
				counted, 100, allocsSmall, 5000, allocsLarge)
		}
	}
}

// BenchmarkEmulateNoObserver measures the unobserved emulation loop.
// The allocation report must stay flat as the loop bound grows (see
// TestNilObserverNoPerInstructionAllocs): the nil-observer fast path
// skips event construction entirely, so per-instruction cost is pure
// interpretation with zero allocations.
func BenchmarkEmulateNoObserver(b *testing.B) {
	m := loopProgram(b, 1000, -1, false)
	cfg := baseCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulateObserved is the same loop with a minimal observer, to
// expose the observation overhead in benchmark comparisons.
func BenchmarkEmulateObserved(b *testing.B) {
	m := loopProgram(b, 1000, -1, false)
	cfg := baseCfg()
	var n int64
	cfg.Observer = observerFunc(func(Event) { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
