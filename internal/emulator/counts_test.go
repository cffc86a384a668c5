package emulator

import (
	"errors"
	"testing"

	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// countsOf runs m the given number of times on continuous power,
// accumulating into one fresh counter set.
func countsOf(t *testing.T, m *ir.Module, runs int) *Counts {
	t.Helper()
	cfg := baseCfg()
	cfg.Counts = NewCounts(dispatch.For(m, cfg.Model))
	for i := 0; i < runs; i++ {
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Completed {
			t.Fatalf("verdict = %v", res.Verdict)
		}
	}
	return cfg.Counts
}

// TestCountsExact pins every counter of a loop whose trip count is
// fixed, accumulated over two runs.
func TestCountsExact(t *testing.T) {
	m := loopProgram(t, 10, -1, false)
	c := countsOf(t, m, 2)
	prog := dispatch.For(m, baseCfg().Model)
	f := prog.FuncOf(m.FuncByName("main"))
	if got := c.Calls[f.ID()]; got != 2 {
		t.Errorf("main calls = %d, want 2", got)
	}
	for _, want := range []struct {
		block       string
		entries     int64
		then, other int64 // Taken sides out of the block
	}{
		{"entry", 2, 2, 0}, // jmp head
		{"head", 22, 20, 2},
		{"body", 20, 20, 0}, // jmp head
		{"done", 2, 0, 0},
	} {
		id := prog.BlockOf(m.FuncByName("main").BlockByName(want.block)).ID()
		if got := c.Blocks[id]; got != want.entries {
			t.Errorf("%s entries = %d, want %d", want.block, got, want.entries)
		}
		if got := c.Taken[2*id]; got != want.then {
			t.Errorf("%s then/jmp side = %d, want %d", want.block, got, want.then)
		}
		if got := c.Taken[2*id+1]; got != want.other {
			t.Errorf("%s else side = %d, want %d", want.block, got, want.other)
		}
	}
}

// TestCountsConserveFlow checks the counters against each other on a
// program with calls: every block's entries are the taken branch sides
// into it, plus the calls of its function when it is the entry block.
func TestCountsConserveFlow(t *testing.T) {
	m := ratchetCallProgram(t, 25)
	c := countsOf(t, m, 3)
	prog := dispatch.For(m, baseCfg().Model)
	in := make([]int64, prog.NumBlocks())
	for _, cf := range prog.Funcs {
		in[cf.Entry.ID()] += c.Calls[cf.ID()]
		for _, cb := range cf.Blocks {
			term := &cb.Code[len(cb.Code)-1]
			switch term.Code {
			case dispatch.CodeBr:
				in[term.Then.ID()] += c.Taken[2*cb.ID()]
				in[term.Else.ID()] += c.Taken[2*cb.ID()+1]
			case dispatch.CodeJmp:
				in[term.Then.ID()] += c.Taken[2*cb.ID()]
			}
		}
	}
	for _, cf := range prog.Funcs {
		for _, cb := range cf.Blocks {
			if in[cb.ID()] != c.Blocks[cb.ID()] {
				t.Errorf("%s.%s: %d entries, %d inflow", cf.IR.Name, cb.IR.Name, c.Blocks[cb.ID()], in[cb.ID()])
			}
		}
	}
	if got := c.Calls[prog.FuncOf(m.FuncByName("step")).ID()]; got != 3*25 {
		t.Errorf("step calls = %d, want 75", got)
	}
}

// TestCountsConfigRejected covers every configuration that would keep a
// counted run off the fast loop or let a power failure re-execute (and
// double-count) blocks, plus counters sized for another program.
func TestCountsConfigRejected(t *testing.T) {
	m := loopProgram(t, 3, -1, false)
	model := baseCfg().Model
	fresh := func() *Counts { return NewCounts(dispatch.For(m, model)) }
	other := NewCounts(dispatch.For(ratchetCallProgram(t, 3), model))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Interpret", Config{Model: model, Counts: fresh(), Interpret: true}},
		{"Resume", Config{Model: model, Counts: fresh(), Resume: &PersistentState{}}},
		{"Hook", Config{Model: model, Counts: fresh(), Hook: func(PointVisit, func() *PersistentState) {}}},
		{"Observer", Config{Model: model, Counts: fresh(), Observer: observerFunc(func(Event) {})}},
		{"Schedule", Config{Model: model, Counts: fresh(), Schedule: Exhaustion()}},
		{"Intermittent", Config{Model: model, Counts: fresh(), Intermittent: true, EB: 1e6}},
		{"other program", Config{Model: model, Counts: other}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(m, tc.cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != "Counts" {
				t.Fatalf("Run error = %v, want ConfigError for field Counts", err)
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("error does not unwrap to ErrInvalidConfig: %v", err)
			}
			if tc.cfg.Counts != other {
				if verr := tc.cfg.Validate(); verr == nil || verr.Error() != err.Error() {
					t.Errorf("Validate = %v, want the error Run reports", verr)
				}
			}
			for _, n := range tc.cfg.Counts.Blocks {
				if n != 0 {
					t.Fatalf("rejected run counted blocks: %v", tc.cfg.Counts.Blocks)
				}
			}
		})
	}
}
