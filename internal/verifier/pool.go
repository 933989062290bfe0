package verifier

import (
	"sync"
	"time"

	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/tnum"
)

// Per-env free lists for State and FuncState. Path exploration clones a
// state on every two-way branch and every prune snapshot, and discards one
// every time a path ends or a branch turns out infeasible; recycling the
// shells (and their Frames/Refs/Ancestry backing arrays) keeps the steady
// state of a verification effectively allocation-free. The pools are
// unsynchronized — an env belongs to exactly one Verify call.
//
// Invariant: frames are never aliased between states (cloneState deep
// copies every frame), so releasing a state may release its frames
// unconditionally. Snapshot clones recorded in e.visited are never
// released; they stay live until the env is dropped.

// Global backing pools seed a fresh env's free lists; once an env has
// been through a verification its states stay attached to it (envs are
// themselves pooled), so the common case never touches the synchronized
// pools at all.
var (
	globalStatePool = sync.Pool{New: func() interface{} { return &State{} }}
	globalFramePool = sync.Pool{New: func() interface{} { return &FuncState{} }}
)

func (e *env) newFrame() *FuncState {
	if n := len(e.framePool); n > 0 {
		f := e.framePool[n-1]
		e.framePool = e.framePool[:n-1]
		return f
	}
	return globalFramePool.Get().(*FuncState)
}

func (e *env) releaseFrame(f *FuncState) {
	e.framePool = append(e.framePool, f)
}

// cloneState is State.Clone through the pools: the shell, the frame
// structs, and the slice backing arrays are all reused when available.
func (e *env) cloneState(s *State) *State {
	var n *State
	if ln := len(e.statePool); ln > 0 {
		n = e.statePool[ln-1]
		e.statePool = e.statePool[:ln-1]
	} else {
		n = globalStatePool.Get().(*State)
	}
	n.Frames = n.Frames[:0]
	for _, f := range s.Frames {
		nf := e.newFrame()
		nf.copyFrom(f)
		n.Frames = append(n.Frames, nf)
	}
	n.Refs = append(n.Refs[:0], s.Refs...)
	n.Ancestry = append(n.Ancestry[:0], s.Ancestry...)
	n.Insn = s.Insn
	return n
}

// newInitialStatePooled builds the entry state, R1 = ctx pointer and
// R10 = frame pointer with everything else uninitialized, from the env
// pools: init gives a pooled frame the all-NotInit register file and
// empty stack of a fresh one without touching its stack slots.
func (e *env) newInitialStatePooled() *State {
	var n *State
	if ln := len(e.statePool); ln > 0 {
		n = e.statePool[ln-1]
		e.statePool = e.statePool[:ln-1]
	} else {
		n = globalStatePool.Get().(*State)
	}
	f := e.newFrame()
	f.init(0, -1)
	f.Regs[isa.R1] = RegState{Type: PtrToCtx, VarOff: tnum.Const(0)}
	f.Regs[isa.R10] = RegState{Type: PtrToStack, VarOff: tnum.Const(0)}
	n.Frames = append(n.Frames[:0], f)
	n.Refs = n.Refs[:0]
	n.Ancestry = n.Ancestry[:0]
	n.Insn = 0
	return n
}

// releaseState recycles st and its frames. st must not be referenced
// afterwards.
func (e *env) releaseState(st *State) {
	for i, f := range st.Frames {
		e.releaseFrame(f)
		st.Frames[i] = nil
	}
	st.Frames = st.Frames[:0]
	st.Refs = st.Refs[:0]
	st.Ancestry = st.Ancestry[:0]
	e.statePool = append(e.statePool, st)
}

// adoptState moves donor's contents into st (the worklist's live state)
// and recycles both st's old frames and donor's shell. It replaces the
// pre-pooling `*st = *donor`, which would have aliased donor's frames.
func (e *env) adoptState(st, donor *State) {
	for i, f := range st.Frames {
		e.releaseFrame(f)
		st.Frames[i] = nil
	}
	oldFrames, oldRefs, oldAncestry := st.Frames[:0], st.Refs[:0], st.Ancestry[:0]
	st.Frames = donor.Frames
	st.Refs = donor.Refs
	st.Ancestry = donor.Ancestry
	st.Insn = donor.Insn
	// Hand st's old backing arrays to the donor shell and recycle it.
	donor.Frames = oldFrames
	donor.Refs = oldRefs
	donor.Ancestry = oldAncestry
	e.statePool = append(e.statePool, donor)
}

// envPool recycles whole verification contexts: the env shell, its
// slice-indexed scratch tables (sized against the largest program the env
// has seen), the pooled coverage recorder, and the state/frame free lists
// all survive from one Verify call to the next.
var envPool = sync.Pool{New: func() interface{} { return &env{} }}

// getEnv prepares a pooled env for one verification of prog: every scratch
// table is resized to the program (reusing capacity) and cleared, the slot
// maps are computed in one incremental pass (the old per-insn SlotOf calls
// were quadratic in program length), and all cross-run accumulators reset.
func getEnv(prog *isa.Program, cfg *Config) *env {
	e := envPool.Get().(*env)
	e.cfg, e.prog = cfg, prog
	e.deadline = time.Time{}
	e.insnProcessed, e.totalStates, e.peakStates = 0, 0, 0
	e.idCounter, e.refCounter, e.snapCounter = 0, 0, 0
	e.r0Bounds = ReturnBounds{}
	e.states = nil
	e.log.Reset()

	n := len(prog.Insns)
	e.slotOf = growInt32(e.slotOf, n)
	slot := int32(0)
	for i := range prog.Insns {
		e.slotOf[i] = slot
		slot += int32(widthOf(prog.Insns[i]))
	}
	e.idxOf = growInt32(e.idxOf, int(slot))
	clearInt32(e.idxOf)
	for i := range prog.Insns {
		e.idxOf[e.slotOf[i]] = int32(i) + 1
	}
	e.insnRegType = growInt32(e.insnRegType, n)
	clearInt32(e.insnRegType)
	e.rangeChecks = growRangeChecks(e.rangeChecks, n)
	e.rcSet = growBools(e.rcSet, n)
	e.aluScalarPath = growBools(e.aluScalarPath, n)
	e.probeMem = growBools(e.probeMem, n)
	e.visited = growVisited(e.visited, n)

	if cfg.Cov != nil {
		if e.localCov == nil {
			e.localCov = coverage.NewLocal()
		}
		e.lcov = e.localCov
	} else {
		e.lcov = nil
	}
	return e
}

// growInt32 returns s resized to n, reusing capacity. Contents are
// unspecified; callers that need zeroes call clearInt32.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func clearInt32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}

// growBools returns s resized to n and cleared.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// growRangeChecks resizes without clearing — entries are guarded by rcSet.
func growRangeChecks(s []RangeCheck, n int) []RangeCheck {
	if cap(s) < n {
		return make([]RangeCheck, n)
	}
	return s[:n]
}

// growVisited resizes the per-insn snapshot lists, preserving the inner
// slices' backing arrays (teardown leaves every inner slice truncated to
// zero length, so reuse never sees stale snapshots).
func growVisited(s [][]snapshot, n int) [][]snapshot {
	if cap(s) < n {
		ns := make([][]snapshot, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}

// teardown recycles the env's entire working set — the recorded prune
// snapshots, the state/frame free lists, the scratch tables, and the env
// shell itself — for the next Verify call, possibly on another goroutine.
// Called (deferred) when Verify returns, after the coverage flush; nothing
// published in Result references a State, FuncState, or scratch table.
func (e *env) teardown() {
	for idx, snaps := range e.visited {
		for _, sn := range snaps {
			e.releaseState(sn.state)
		}
		e.visited[idx] = snaps[:0]
	}
	for i, st := range e.worklist {
		e.releaseState(st)
		e.worklist[i] = nil
	}
	e.worklist = e.worklist[:0]
	clear(e.usedMaps)
	e.usedMaps = e.usedMaps[:0]
	e.cfg, e.prog, e.states, e.lcov = nil, nil, nil, nil
	envPool.Put(e)
}
