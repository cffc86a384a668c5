package emulator

import (
	"errors"
	"fmt"

	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// runSafety is the capacitor margin (nJ) required to charge a whole
// straight-line run in one decision. The run's precomputed total is
// summed in a different order than the sequential per-instruction
// subtractions, so the two can differ by float rounding; the margin
// dwarfs any such difference. When the capacitor is within the margin of
// the run's cost — i.e. a power failure could plausibly land inside the
// batch — the machine falls back to per-instruction decisions, which
// resolve the failure point bit-identically to the reference
// interpreter.
const runSafety = 1e-3

// runCompiled drives the machine over the precompiled program. It is
// observably identical to runInterpreted: same verdicts, outputs, energy
// ledgers, counters, and error text. Two grades of execution:
//
//   - fastLoop: when no observer needs per-instruction events and no
//     schedule can fire between instructions (both per-run constants),
//     the whole dispatch — accounting, arithmetic, memory access, control
//     flow — runs inline, and straight-line runs charge on one
//     precomputed capacitor-margin decision. Ledger sums stay
//     per-instruction, so float results remain bit-identical. The
//     profiler rides this loop too: a Config.Counts set is bumped at
//     each control transfer (boot, call, branch, jump) and nowhere else,
//     so a profiling run costs what a plain run costs.
//   - steppedLoop: the exact mirror of the interpreter's step(), on
//     precomputed costs and resolved operands, for observed or scheduled
//     runs. Config.Validate keeps counted runs off it.
//
// This gate is also what keeps batched energy accounting sound under
// external power models: any non-nil Config.Schedule — including
// harvested-capacitor schedules and trace replays (internal/harvest),
// whose Fail decisions depend on seeing every probe — forces
// steppedLoop's per-instruction accounting for the whole run. There is
// no "safe no-fire window" to negotiate per schedule; scheduled runs
// simply never batch. The dispatch-equivalence suite (internal/bench)
// pins this with harvested members.
func (mc *machine) runCompiled() (*Result, error) {
	var finished bool
	var err error
	if mc.obs == nil && mc.sched == nil {
		finished, err = mc.fastLoop()
	} else {
		finished, err = mc.steppedLoop()
	}
	if err != nil {
		return nil, err
	}
	if finished {
		mc.res.Verdict = Completed
	}
	mc.res.Output = mc.out
	return &mc.res, nil
}

// fastLoop is the unobserved, unscheduled engine: the only possible
// interrupts are capacitor exhaustion, checkpoints, arithmetic traps,
// and the step limit, all of which it detects inline. It returns true
// when main returned.
//
// The current frame and its compiled block are hoisted into locals;
// every event that can change them (calls, returns, branches,
// checkpoints, power failures, VM materialization) resynchronizes. The
// halted flag is likewise only checked after the calls that can set it.
func (mc *machine) fastLoop() (bool, error) {
	fr := mc.top()
	code := fr.cb.Code
	runs := fr.cb.Runs
	// Control-transfer counters: the loop starts at boot, so main's
	// invocation is counted here; calls, branches and jumps count below.
	cnt := mc.cfg.Counts
	if cnt != nil {
		cnt.call(mc.prog.FuncOf(fr.fn))
	}
	for {
		if mc.res.Steps >= mc.cfg.MaxSteps {
			mc.close(OutOfSteps)
			return false, nil
		}
		pc := fr.pc
		if pc >= len(code) {
			return false, fmt.Errorf("emulator: %s.%s: fell off block end", fr.fn.Name, fr.block.Name)
		}

		// Straight-line batch: when the precomputed run total fits the
		// capacitor with margin (and the step limit), the whole run
		// executes on that one decision — no per-instruction exhaustion
		// compare can fire inside it.
		if r := &runs[pc]; r.Len > 0 && mc.res.Steps+int64(r.Len) <= mc.cfg.MaxSteps &&
			(!mc.exhaust || mc.capEn >= r.Energy+runSafety) {
			did, err := mc.execBatch(fr, r.Len)
			if err != nil {
				return false, err
			}
			if did {
				continue
			}
			// The batch's first instruction is a VM access that needs the
			// materialization machinery; fall through to the generic path,
			// which has consumed nothing yet.
		}

		ci := &code[pc]
		mc.res.Steps++

		if ci.Code == dispatch.CodeCheckpoint {
			if err := mc.execCheckpoint(ci.Ck); err != nil {
				return false, err
			}
			if mc.halted {
				return false, nil
			}
			fr = mc.top()
			code = fr.cb.Code
			runs = fr.cb.Runs
			continue
		}

		// Inline charge(): same decision order, same per-instruction
		// ledger additions as the interpreter's charge path.
		e := ci.Energy
		if mc.exhaust && mc.capEn+chargeEpsilon < e {
			mc.powerFailure()
			if mc.halted {
				return false, nil
			}
			fr = mc.top()
			code = fr.cb.Code
			runs = fr.cb.Runs
			continue
		}
		reexec := mc.done < mc.furthest
		mc.capEn -= e
		if reexec {
			mc.res.Energy.Reexecution += e
		} else if ci.IsMem {
			mc.res.Energy.Computation += e
			if ci.InVM {
				mc.res.Energy.VMAccessEnergy += e
				mc.res.Energy.VMAccesses++
			} else {
				mc.res.Energy.NVMAccessEnergy += e
				mc.res.Energy.NVMAccesses++
			}
		} else {
			mc.res.Energy.Computation += e
			mc.res.Energy.NoMemEnergy += e
		}
		mc.res.TotalCycles += ci.Cycles
		mc.cyclesSincePower += ci.Cycles
		if !reexec {
			mc.res.Cycles += ci.Cycles
		}

		regs := fr.regs
		switch ci.Code {
		case dispatch.CodeLoopBound:
			fr.pc++
		case dispatch.CodeConst:
			regs[ci.Dst] = ci.Val
			fr.pc++
		case dispatch.CodeAdd:
			regs[ci.Dst] = regs[ci.A] + regs[ci.B]
			fr.pc++
		case dispatch.CodeSub:
			regs[ci.Dst] = regs[ci.A] - regs[ci.B]
			fr.pc++
		case dispatch.CodeMul:
			regs[ci.Dst] = regs[ci.A] * regs[ci.B]
			fr.pc++
		case dispatch.CodeAnd:
			regs[ci.Dst] = regs[ci.A] & regs[ci.B]
			fr.pc++
		case dispatch.CodeOr:
			regs[ci.Dst] = regs[ci.A] | regs[ci.B]
			fr.pc++
		case dispatch.CodeXor:
			regs[ci.Dst] = regs[ci.A] ^ regs[ci.B]
			fr.pc++
		case dispatch.CodeShl:
			b := regs[ci.B]
			if b < 0 || b > 63 {
				regs[ci.Dst] = 0
			} else {
				regs[ci.Dst] = regs[ci.A] << uint(b)
			}
			fr.pc++
		case dispatch.CodeShr:
			b := regs[ci.B]
			if b < 0 || b > 63 {
				regs[ci.Dst] = 0
			} else {
				regs[ci.Dst] = int64(uint64(regs[ci.A]) >> uint(b))
			}
			fr.pc++
		case dispatch.CodeEq:
			regs[ci.Dst] = b2i(regs[ci.A] == regs[ci.B])
			fr.pc++
		case dispatch.CodeNe:
			regs[ci.Dst] = b2i(regs[ci.A] != regs[ci.B])
			fr.pc++
		case dispatch.CodeLt:
			regs[ci.Dst] = b2i(regs[ci.A] < regs[ci.B])
			fr.pc++
		case dispatch.CodeLe:
			regs[ci.Dst] = b2i(regs[ci.A] <= regs[ci.B])
			fr.pc++
		case dispatch.CodeGt:
			regs[ci.Dst] = b2i(regs[ci.A] > regs[ci.B])
			fr.pc++
		case dispatch.CodeGe:
			regs[ci.Dst] = b2i(regs[ci.A] >= regs[ci.B])
			fr.pc++
		case dispatch.CodeNeg:
			regs[ci.Dst] = -regs[ci.A]
			fr.pc++
		case dispatch.CodeNot:
			regs[ci.Dst] = b2i(regs[ci.A] == 0)
			fr.pc++
		case dispatch.CodeBin:
			v, err := ir.EvalOp(ci.Op, regs[ci.A], regs[ci.B])
			if err != nil {
				return false, fmt.Errorf("emulator: %s.%s: %w", fr.fn.Name, fr.block.Name, err)
			}
			regs[ci.Dst] = v
			fr.pc++
		case dispatch.CodeLoad:
			idx := 0
			if ci.HasIndex {
				iv := regs[ci.A]
				if iv < 0 || iv >= int64(ci.Var.Elems) {
					return false, fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
						fr.fn.Name, fr.block.Name, iv, ci.Var.Name, ci.Var.Elems)
				}
				idx = int(iv)
			}
			if ci.InVM {
				arr := mc.vm[ci.Slot]
				if arr == nil || mc.pending[ci.Slot] {
					arr = mc.vmStorage(ci.Slot, ci.Var, true)
					if arr == nil {
						// Power failure or verdict; progress not bumped.
						if mc.halted {
							return false, nil
						}
						fr = mc.top()
						code = fr.cb.Code
						runs = fr.cb.Runs
						continue
					}
				}
				regs[ci.Dst] = arr[idx]
			} else {
				regs[ci.Dst] = mc.nvm[ci.Slot][idx]
			}
			fr.pc++
		case dispatch.CodeStore:
			idx := 0
			if ci.HasIndex {
				iv := regs[ci.B]
				if iv < 0 || iv >= int64(ci.Var.Elems) {
					return false, fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
						fr.fn.Name, fr.block.Name, iv, ci.Var.Name, ci.Var.Elems)
				}
				idx = int(iv)
			}
			if ci.InVM {
				arr := mc.vm[ci.Slot]
				if arr == nil || mc.pending[ci.Slot] {
					arr = mc.vmStorage(ci.Slot, ci.Var, false)
					if arr == nil {
						if mc.halted {
							return false, nil
						}
						fr = mc.top()
						code = fr.cb.Code
						runs = fr.cb.Runs
						continue
					}
				}
				arr[idx] = regs[ci.A]
				mc.dirty[ci.Slot] = true
			} else {
				mc.nvm[ci.Slot][idx] = regs[ci.A]
			}
			fr.pc++
		case dispatch.CodeCall:
			fr.pc++ // return continues after the call
			cf := ci.Callee
			nf := frame{
				fn:      cf.IR,
				block:   cf.Entry.IR,
				cb:      cf.Entry,
				regs:    mc.newRegs(cf.IR.NumRegs),
				retReg:  ir.Reg(ci.Dst),
				wantRet: ci.HasDst,
			}
			for i, a := range ci.Args {
				nf.regs[i] = regs[a]
			}
			mc.frames = append(mc.frames, nf)
			fr = &mc.frames[len(mc.frames)-1]
			code = fr.cb.Code
			runs = fr.cb.Runs
			if cnt != nil {
				cnt.call(cf)
			}
		case dispatch.CodeOut:
			mc.out = append(mc.out, regs[ci.A])
			fr.pc++
		case dispatch.CodeBr:
			t, side := ci.Else, int32(1)
			if regs[ci.A] != 0 {
				t, side = ci.Then, 0
			}
			if cnt != nil {
				cnt.transfer(fr.cb, t, side)
			}
			fr.block = t.IR
			fr.cb = t
			fr.pc = 0
			code = t.Code
			runs = t.Runs
		case dispatch.CodeJmp:
			t := ci.Then
			if cnt != nil {
				cnt.transfer(fr.cb, t, 0)
			}
			fr.block = t.IR
			fr.cb = t
			fr.pc = 0
			code = t.Code
			runs = t.Runs
		case dispatch.CodeRet:
			var val int64
			if ci.HasDst { // Ret: HasDst carries HasSrc
				val = regs[ci.A]
			}
			// The popped frame's registers go back to the pool; snapshots
			// deep-copy register arrays, so no live state aliases them.
			mc.regPool = append(mc.regPool, fr.regs)
			mc.frames = mc.frames[:len(mc.frames)-1]
			if len(mc.frames) == 0 {
				return true, nil
			}
			caller := mc.top()
			if fr.wantRet {
				caller.regs[fr.retReg] = val
			}
			fr = caller
			code = fr.cb.Code
			runs = fr.cb.Runs
		default:
			return false, fmt.Errorf("emulator: unknown instruction %T", ci.IR)
		}
		// Inline bumpProgress; the observer is nil on this path, so the
		// span-close event never fires.
		mc.done++
		if mc.done > mc.furthest {
			mc.furthest = mc.done
		}
		if mc.inReexec && mc.done >= mc.furthest {
			mc.inReexec = false
		}
	}
}

// execBatch executes up to n consecutive batchable instructions
// starting at fr.pc. The caller has established that no schedule,
// observer, step-limit, or capacitor exhaustion can fire inside the
// window, so the only remaining interrupts are arithmetic traps, index
// checks, and VM accesses that need the materialization machinery. The
// first two abort the run exactly like the stepped path; the last exits
// the batch *before* the access's accounting, leaving the instruction
// wholly unexecuted for the generic path to replay in interpreter
// order. It returns false when that happens on the very first
// instruction (nothing consumed), so the caller falls through instead
// of re-entering the batch forever.
//
// Accounting stays per-instruction — the same additions in the same
// order as the stepped path — only the decisions are hoisted out.
func (mc *machine) execBatch(fr *frame, n int32) (bool, error) {
	code := fr.cb.Code
	regs := fr.regs
	// Accumulators live in locals for the duration of the batch. The
	// additions happen in the same per-instruction order as the stepped
	// path — only their home moves from memory to registers — so every
	// float result is bit-identical.
	pc := fr.pc
	pc0 := pc
	capEn := mc.capEn
	comp := mc.res.Energy.Computation
	reex := mc.res.Energy.Reexecution
	noMem := mc.res.Energy.NoMemEnergy
	vmE := mc.res.Energy.VMAccessEnergy
	nvmE := mc.res.Energy.NVMAccessEnergy
	vmN := mc.res.Energy.VMAccesses
	nvmN := mc.res.Energy.NVMAccesses
	total := mc.res.TotalCycles
	since := mc.cyclesSincePower
	cyc := mc.res.Cycles
	steps := mc.res.Steps
	done := mc.done
	furthest := mc.furthest
	var err error
loop:
	for ; n > 0; n-- {
		ci := &code[pc]
		if ci.IsMem && ci.InVM && (mc.vm[ci.Slot] == nil || mc.pending[ci.Slot]) {
			// Needs materialization, deferred-restore charging, or
			// poisoning — before any accounting, so the generic path
			// replays this instruction from scratch.
			break loop
		}
		steps++
		reexec := done < furthest
		capEn -= ci.Energy
		if reexec {
			reex += ci.Energy
		} else if ci.IsMem {
			comp += ci.Energy
			if ci.InVM {
				vmE += ci.Energy
				vmN++
			} else {
				nvmE += ci.Energy
				nvmN++
			}
		} else {
			comp += ci.Energy
			noMem += ci.Energy
		}
		total += ci.Cycles
		since += ci.Cycles
		if !reexec {
			cyc += ci.Cycles
		}
		switch ci.Code {
		case dispatch.CodeConst:
			regs[ci.Dst] = ci.Val
		case dispatch.CodeAdd:
			regs[ci.Dst] = regs[ci.A] + regs[ci.B]
		case dispatch.CodeSub:
			regs[ci.Dst] = regs[ci.A] - regs[ci.B]
		case dispatch.CodeMul:
			regs[ci.Dst] = regs[ci.A] * regs[ci.B]
		case dispatch.CodeAnd:
			regs[ci.Dst] = regs[ci.A] & regs[ci.B]
		case dispatch.CodeOr:
			regs[ci.Dst] = regs[ci.A] | regs[ci.B]
		case dispatch.CodeXor:
			regs[ci.Dst] = regs[ci.A] ^ regs[ci.B]
		case dispatch.CodeShl:
			b := regs[ci.B]
			if b < 0 || b > 63 {
				regs[ci.Dst] = 0
			} else {
				regs[ci.Dst] = regs[ci.A] << uint(b)
			}
		case dispatch.CodeShr:
			b := regs[ci.B]
			if b < 0 || b > 63 {
				regs[ci.Dst] = 0
			} else {
				regs[ci.Dst] = int64(uint64(regs[ci.A]) >> uint(b))
			}
		case dispatch.CodeEq:
			regs[ci.Dst] = b2i(regs[ci.A] == regs[ci.B])
		case dispatch.CodeNe:
			regs[ci.Dst] = b2i(regs[ci.A] != regs[ci.B])
		case dispatch.CodeLt:
			regs[ci.Dst] = b2i(regs[ci.A] < regs[ci.B])
		case dispatch.CodeLe:
			regs[ci.Dst] = b2i(regs[ci.A] <= regs[ci.B])
		case dispatch.CodeGt:
			regs[ci.Dst] = b2i(regs[ci.A] > regs[ci.B])
		case dispatch.CodeGe:
			regs[ci.Dst] = b2i(regs[ci.A] >= regs[ci.B])
		case dispatch.CodeNeg:
			regs[ci.Dst] = -regs[ci.A]
		case dispatch.CodeNot:
			regs[ci.Dst] = b2i(regs[ci.A] == 0)
		case dispatch.CodeBin:
			v, everr := ir.EvalOp(ci.Op, regs[ci.A], regs[ci.B])
			if everr != nil {
				// The trapping instruction's accounting stands; pc and
				// progress stay on it, exactly like the stepped path.
				err = fmt.Errorf("emulator: %s.%s: %w", fr.fn.Name, fr.block.Name, everr)
				break loop
			}
			regs[ci.Dst] = v
		case dispatch.CodeLoad:
			idx := 0
			if ci.HasIndex {
				iv := regs[ci.A]
				if iv < 0 || iv >= int64(ci.Var.Elems) {
					err = fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
						fr.fn.Name, fr.block.Name, iv, ci.Var.Name, ci.Var.Elems)
					break loop
				}
				idx = int(iv)
			}
			if ci.InVM {
				regs[ci.Dst] = mc.vm[ci.Slot][idx]
			} else {
				regs[ci.Dst] = mc.nvm[ci.Slot][idx]
			}
		case dispatch.CodeStore:
			idx := 0
			if ci.HasIndex {
				iv := regs[ci.B]
				if iv < 0 || iv >= int64(ci.Var.Elems) {
					err = fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
						fr.fn.Name, fr.block.Name, iv, ci.Var.Name, ci.Var.Elems)
					break loop
				}
				idx = int(iv)
			}
			if ci.InVM {
				mc.vm[ci.Slot][idx] = regs[ci.A]
				mc.dirty[ci.Slot] = true
			} else {
				mc.nvm[ci.Slot][idx] = regs[ci.A]
			}
		case dispatch.CodeOut:
			mc.out = append(mc.out, regs[ci.A])
		case dispatch.CodeLoopBound:
			// metadata only
		}
		pc++
		done++
		if done > furthest {
			furthest = done
		}
	}
	fr.pc = pc
	mc.capEn = capEn
	mc.res.Energy.Computation = comp
	mc.res.Energy.Reexecution = reex
	mc.res.Energy.NoMemEnergy = noMem
	mc.res.Energy.VMAccessEnergy = vmE
	mc.res.Energy.NVMAccessEnergy = nvmE
	mc.res.Energy.VMAccesses = vmN
	mc.res.Energy.NVMAccesses = nvmN
	mc.res.TotalCycles = total
	mc.cyclesSincePower = since
	mc.res.Cycles = cyc
	mc.res.Steps = steps
	mc.done = done
	mc.furthest = furthest
	// Inline bumpProgress's span close. done only grows, so checking once
	// after the batch clears the flag at the same point the stepped path
	// would; obs is nil on this path, so the span-close event never fires.
	if mc.inReexec && done >= furthest {
		mc.inReexec = false
	}
	return pc != pc0, err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// steppedLoop drives stepCompiled for observed or scheduled runs, where
// every instruction boundary needs its probe and every charge its event.
func (mc *machine) steppedLoop() (bool, error) {
	for !mc.halted {
		if mc.res.Steps >= mc.cfg.MaxSteps {
			mc.close(OutOfSteps)
			return false, nil
		}
		fr := mc.top()
		if fr.pc >= len(fr.cb.Code) {
			return false, fmt.Errorf("emulator: %s.%s: fell off block end", fr.fn.Name, fr.block.Name)
		}
		finished, err := mc.stepCompiled(fr)
		if err != nil || finished {
			return finished, err
		}
	}
	return false, nil
}

// stepCompiled executes one instruction through the compiled program,
// mirroring the interpreter's step() decision for decision: probe order,
// charge kinds, cycle accounting, and error text all match.
func (mc *machine) stepCompiled(fr *frame) (bool, error) {
	ci := &fr.cb.Code[fr.pc]
	mc.res.Steps++

	if mc.sched != nil && mc.sched.Fail(mc.probe(PointStep, mc.res.Steps, 0)) {
		mc.induce(PointStep, -1, mc.res.Steps)
		mc.powerFailure()
		return false, nil
	}

	if ci.Code == dispatch.CodeCheckpoint {
		return false, mc.execCheckpoint(ci.Ck)
	}

	reexec := mc.done < mc.furthest
	var ok bool
	if ci.IsMem {
		if ci.InVM {
			ok = mc.charge(ci.Energy, chVMAcc)
		} else {
			ok = mc.charge(ci.Energy, chNVMAcc)
		}
	} else {
		ok = mc.charge(ci.Energy, chComp)
		if ok && !reexec {
			mc.res.Energy.NoMemEnergy += ci.Energy
		}
	}
	if !ok {
		mc.powerFailure()
		return false, nil
	}
	mc.res.TotalCycles += ci.Cycles
	mc.cyclesSincePower += ci.Cycles
	if !reexec {
		mc.res.Cycles += ci.Cycles
	}

	halt, err := mc.execCompiled(fr, ci)
	if errors.Is(err, errInterrupt) {
		return false, nil
	}
	if err != nil || halt {
		return halt, err
	}
	mc.bumpProgress()
	return false, nil
}

// execCompiled performs the state change of a non-checkpoint compiled
// instruction, mirroring exec().
func (mc *machine) execCompiled(fr *frame, ci *dispatch.Instr) (bool, error) {
	switch ci.Code {
	case dispatch.CodeLoopBound:
		fr.pc++
	case dispatch.CodeConst:
		fr.regs[ci.Dst] = ci.Val
		fr.pc++
	case dispatch.CodeAdd:
		fr.regs[ci.Dst] = fr.regs[ci.A] + fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeSub:
		fr.regs[ci.Dst] = fr.regs[ci.A] - fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeMul:
		fr.regs[ci.Dst] = fr.regs[ci.A] * fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeAnd:
		fr.regs[ci.Dst] = fr.regs[ci.A] & fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeOr:
		fr.regs[ci.Dst] = fr.regs[ci.A] | fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeXor:
		fr.regs[ci.Dst] = fr.regs[ci.A] ^ fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeShl:
		b := fr.regs[ci.B]
		if b < 0 || b > 63 {
			fr.regs[ci.Dst] = 0
		} else {
			fr.regs[ci.Dst] = fr.regs[ci.A] << uint(b)
		}
		fr.pc++
	case dispatch.CodeShr:
		b := fr.regs[ci.B]
		if b < 0 || b > 63 {
			fr.regs[ci.Dst] = 0
		} else {
			fr.regs[ci.Dst] = int64(uint64(fr.regs[ci.A]) >> uint(b))
		}
		fr.pc++
	case dispatch.CodeEq:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] == fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeNe:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] != fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeLt:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] < fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeLe:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] <= fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeGt:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] > fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeGe:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] >= fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeNeg:
		fr.regs[ci.Dst] = -fr.regs[ci.A]
		fr.pc++
	case dispatch.CodeNot:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] == 0)
		fr.pc++
	case dispatch.CodeBin:
		v, err := ir.EvalOp(ci.Op, fr.regs[ci.A], fr.regs[ci.B])
		if err != nil {
			return false, fmt.Errorf("emulator: %s.%s: %w", fr.fn.Name, fr.block.Name, err)
		}
		fr.regs[ci.Dst] = v
		fr.pc++
	case dispatch.CodeLoad:
		idx, err := elemIndexC(ci, ci.A, fr)
		if err != nil {
			return false, err
		}
		var val int64
		if ci.InVM {
			arr := mc.vmStorage(ci.Slot, ci.Var, true)
			if arr == nil {
				return false, errInterrupt
			}
			val = arr[idx]
		} else {
			val = mc.nvm[ci.Slot][idx]
		}
		fr.regs[ci.Dst] = val
		fr.pc++
	case dispatch.CodeStore:
		idx, err := elemIndexC(ci, ci.B, fr)
		if err != nil {
			return false, err
		}
		val := fr.regs[ci.A]
		if ci.InVM {
			arr := mc.vmStorage(ci.Slot, ci.Var, false)
			if arr == nil {
				return false, errInterrupt
			}
			arr[idx] = val
			mc.dirty[ci.Slot] = true
		} else {
			mc.nvm[ci.Slot][idx] = val
		}
		fr.pc++
	case dispatch.CodeCall:
		fr.pc++ // return continues after the call
		cf := ci.Callee
		nf := frame{
			fn:      cf.IR,
			block:   cf.Entry.IR,
			cb:      cf.Entry,
			regs:    make([]int64, cf.IR.NumRegs),
			retReg:  ir.Reg(ci.Dst),
			wantRet: ci.HasDst,
		}
		for i, a := range ci.Args {
			nf.regs[i] = fr.regs[a]
		}
		mc.frames = append(mc.frames, nf)
		if mc.obs != nil {
			mc.emit(Event{Kind: EvBlockEnter, Fn: nf.fn, Block: nf.block, Call: true})
		}
	case dispatch.CodeOut:
		mc.out = append(mc.out, fr.regs[ci.A])
		fr.pc++
	case dispatch.CodeBr:
		if fr.regs[ci.A] != 0 {
			mc.enterCompiled(fr, ci.Then)
		} else {
			mc.enterCompiled(fr, ci.Else)
		}
	case dispatch.CodeJmp:
		mc.enterCompiled(fr, ci.Then)
	case dispatch.CodeRet:
		var val int64
		if ci.HasDst { // Ret: HasDst carries HasSrc
			val = fr.regs[ci.A]
		}
		if mc.obs != nil {
			mc.emit(Event{Kind: EvFuncReturn, Fn: fr.fn})
		}
		mc.frames = mc.frames[:len(mc.frames)-1]
		if len(mc.frames) == 0 {
			return true, nil
		}
		caller := mc.top()
		if fr.wantRet {
			caller.regs[fr.retReg] = val
		}
	default:
		return false, fmt.Errorf("emulator: unknown instruction %T", ci.IR)
	}
	return false, nil
}

func (mc *machine) enterCompiled(fr *frame, cb *dispatch.Block) {
	fr.block = cb.IR
	fr.cb = cb
	fr.pc = 0
	if mc.obs != nil {
		mc.emit(Event{Kind: EvBlockEnter, Fn: fr.fn, Block: cb.IR})
	}
}

// elemIndexC mirrors elemIndex for a compiled memory instruction; idxReg
// is the operand field holding the index register (A for loads, B for
// stores).
func elemIndexC(ci *dispatch.Instr, idxReg int32, fr *frame) (int, error) {
	if !ci.HasIndex {
		return 0, nil
	}
	idx := fr.regs[idxReg]
	if idx < 0 || idx >= int64(ci.Var.Elems) {
		return 0, fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
			fr.fn.Name, fr.block.Name, idx, ci.Var.Name, ci.Var.Elems)
	}
	return int(idx), nil
}
