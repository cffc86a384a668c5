package trace

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/fuzzgen"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/opt"
)

// refProfiler is the reference profiler Collect is held to: the
// historical stack-mirroring closure, rebuilt on a plain Observer. It
// mirrors the call stack from EvBlockEnter entries (skipping the
// Resume-marked replay after a snapshot restore) and EvFuncReturn, and
// attributes each block entry to the intra-function CFG edge from the
// frame's previously entered block.
type refProfiler struct {
	p     *Profile
	stack []refLevel
}

type refLevel struct {
	fn   *ir.Func
	prev *ir.Block
}

func (r *refProfiler) Event(e emulator.Event) {
	switch e.Kind {
	case emulator.EvBlockEnter:
		if e.Resume {
			return
		}
		fn, b := e.Fn, e.Block
		if b == fn.Entry() && (len(r.stack) == 0 || r.stack[len(r.stack)-1].fn != fn) {
			r.stack = append(r.stack, refLevel{fn: fn})
			r.p.invocations[fn.Name]++
		}
		lv := &r.stack[len(r.stack)-1]
		if lv.prev != nil && refIsSucc(lv.prev, b) {
			r.p.edgeCount[fn.Name][edgeKey{lv.prev.Name, b.Name}]++
		}
		r.p.blockCount[blockKey{fn.Name, b.Name}]++
		lv.prev = b
	case emulator.EvFuncReturn:
		if len(r.stack) > 0 {
			r.stack = r.stack[:len(r.stack)-1]
		}
	}
}

func refIsSucc(from, to *ir.Block) bool {
	for _, s := range from.Succs() {
		if s == to {
			return true
		}
	}
	return false
}

// refCollect is Collect driven by refProfiler: same input stream, same
// per-run checks, same averages.
func refCollect(m *ir.Module, opts Options) (*Profile, error) {
	model := opts.Model
	if model == nil {
		model = energy.MSP430FR5969()
	}
	p := &Profile{
		Runs:             opts.Runs,
		Seed:             opts.Seed,
		edgeCount:        map[string]map[edgeKey]int64{},
		blockCount:       map[blockKey]int64{},
		invocations:      map[string]int64{},
		loopIterEstimate: map[blockKey]int{},
	}
	for _, f := range m.Funcs {
		p.edgeCount[f.Name] = map[edgeKey]int64{}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var totalCycles int64
	var totalEnergy float64
	for run := 0; run < opts.Runs; run++ {
		res, err := emulator.Run(m, emulator.Config{
			Model:    model,
			Inputs:   inputsWith(m, rng, opts.InputGen),
			MaxSteps: opts.MaxSteps,
			Observer: &refProfiler{p: p},
		})
		if err != nil {
			return nil, err
		}
		if res.Verdict != emulator.Completed {
			return nil, fmt.Errorf("run %d did not complete: %v", run, res.Verdict)
		}
		totalCycles += res.Cycles
		totalEnergy += res.Energy.Total()
	}
	if totalCycles > 0 {
		p.AvgEnergyPerCycle = totalEnergy / float64(totalCycles)
	}
	p.AvgCycles = float64(totalCycles) / float64(opts.Runs)
	p.AvgEnergy = totalEnergy / float64(opts.Runs)
	p.estimateLoopIters(m)
	return p, nil
}

// benchProgram is one bundled benchmark's MiniC source.
type benchProgram struct{ name, src string }

// benchPrograms reads the bundled benchmarks from the bench package's
// program directory (importing bench would be an import cycle).
func benchPrograms(tb testing.TB) []benchProgram {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "bench", "programs", "*.mc"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) != 10 {
		tb.Fatalf("found %d benchmark programs, want 10", len(paths))
	}
	var out []benchProgram
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, benchProgram{strings.TrimSuffix(filepath.Base(path), ".mc"), string(src)})
	}
	return out
}

// equivalenceModules returns the bundled benchmarks (raw and optimized)
// and a mixed fuzz corpus, compiled fresh for each call.
func equivalenceModules(t *testing.T) map[string]*ir.Module {
	t.Helper()
	mods := map[string]*ir.Module{}
	for _, bp := range benchPrograms(t) {
		for _, optimize := range []bool{false, true} {
			m, err := minic.Compile(bp.name, bp.src)
			if err != nil {
				t.Fatalf("%s: %v", bp.name, err)
			}
			key := bp.name
			if optimize {
				if _, err := opt.Optimize(m); err != nil {
					t.Fatalf("%s: optimize: %v", bp.name, err)
				}
				key += "+opt"
			}
			mods[key] = m
		}
	}
	const fuzzN = 40
	for i, fp := range fuzzgen.MixedCorpus(0x5eed, fuzzN) {
		m, err := minic.Compile(fmt.Sprintf("fuzz%02d", i), fp.Source)
		if err != nil {
			t.Fatalf("fuzz program %d (seed %d): %v", i, fp.Seed, err)
		}
		mods[m.Name] = m
	}
	return mods
}

// TestCollectMatchesReferenceProfiler pins Collect to the reference
// profiler: every Profile field except Elapsed must be deeply equal on
// every bundled benchmark and a mixed fuzz corpus, at several seeds.
func TestCollectMatchesReferenceProfiler(t *testing.T) {
	mods := equivalenceModules(t)
	runs := 2
	if testing.Short() {
		runs = 1
	}
	for name, m := range mods {
		for _, seed := range []int64{1, 7, 42} {
			opts := Options{Runs: runs, Seed: seed}
			want, err := refCollect(m, opts)
			if err != nil {
				t.Fatalf("%s seed %d: reference: %v", name, seed, err)
			}
			got, err := Collect(m, opts)
			if err != nil {
				t.Fatalf("%s seed %d: Collect: %v", name, seed, err)
			}
			got.Elapsed = 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: Collect profile differs from the reference\n got: %+v\nwant: %+v",
					name, seed, got, want)
			}
		}
	}
}

// BenchmarkCollect times the profile stage alone: 50 profiling runs,
// the server's default, of each bundled benchmark.
func BenchmarkCollect(b *testing.B) {
	for _, bp := range benchPrograms(b) {
		m, err := minic.Compile(bp.name, bp.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Collect(m, Options{Runs: 50, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
