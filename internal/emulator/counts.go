package emulator

import (
	"fmt"

	"schematic/internal/emulator/dispatch"
)

// Counts is the control-transfer profile of one or more runs, indexed by
// the dispatch program's block and function IDs. The compiled fast loop
// bumps it only where control transfers — the boot of main, calls, and
// taken branches and jumps — so a counted run executes at emulation
// speed. Counts accumulate across every run that shares the set.
//
// Counting is limited to runs that take the fast loop from boot to the
// end on continuous power: Config.Validate rejects Counts alongside
// Interpret, Resume, Hook, Observer, Schedule, or Intermittent, where a
// power failure would re-execute (and so double-count) blocks.
type Counts struct {
	// Blocks[id] counts entries into the block with dispatch ID id.
	Blocks []int64
	// Taken[2*id] counts transfers out of block id through its Jmp or
	// the Then side of its Br; Taken[2*id+1] through the Else side.
	Taken []int64
	// Calls[id] counts invocations of the function with dispatch ID id,
	// the boot of main included.
	Calls []int64
}

// NewCounts returns a zeroed counter set sized for prog.
func NewCounts(prog *dispatch.Program) *Counts {
	n := prog.NumBlocks()
	return &Counts{
		Blocks: make([]int64, n),
		Taken:  make([]int64, 2*n),
		Calls:  make([]int64, len(prog.Funcs)),
	}
}

// fits reports a ConfigError unless c is sized for prog.
func (c *Counts) fits(prog *dispatch.Program) error {
	n := prog.NumBlocks()
	if len(c.Blocks) != n || len(c.Taken) != 2*n || len(c.Calls) != len(prog.Funcs) {
		return &ConfigError{Field: "Counts", Reason: fmt.Sprintf(
			"sized for %d blocks, %d branch sides and %d functions; the program has %d, %d and %d",
			len(c.Blocks), len(c.Taken), len(c.Calls), n, 2*n, len(prog.Funcs))}
	}
	return nil
}

// call counts an invocation of f, which enters f's entry block.
func (c *Counts) call(f *dispatch.Func) {
	c.Calls[f.ID()]++
	c.Blocks[f.Entry.ID()]++
}

// transfer counts a taken branch side out of from into to.
func (c *Counts) transfer(from, to *dispatch.Block, side int32) {
	c.Taken[2*from.ID()+side]++
	c.Blocks[to.ID()]++
}
