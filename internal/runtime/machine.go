// Package runtime executes verified (and optionally sanitized) eBPF
// programs against the simulated kernel. It plays the role of the kernel's
// JIT + execution environment: raw loads and stores are *uninstrumented*
// (silent unless they hit the null page), while the sanitizer's dispatch
// calls and helper-internal accesses go through the KASAN checks — exactly
// the asymmetry BVF's oracle exploits.
package runtime

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/lockdep"
	"repro/internal/maps"
	"repro/internal/trace"
)

// Machine is one simulated kernel's execution state: memory, locks,
// tracepoints, maps and kernel objects. It is not safe for concurrent use.
type Machine struct {
	Dom     *kmem.Domain
	Helpers *helpers.Registry
	BTF     *btf.Registry
	Lockdep *lockdep.Validator
	Trace   *trace.Manager
	Bugs    bugs.Set

	mapsByFD   map[int32]*maps.Map
	mapsByAddr map[uint64]*maps.Map
	nextFD     int32

	lockClasses map[string]*lockdep.Class
	btfVars     map[btf.TypeID]*kmem.Allocation
	currentTask *kmem.Allocation

	// PacketLen is the runtime length of the synthetic packet handed to
	// networking programs. The verifier never knows it; programs must
	// compare against data_end.
	PacketLen int

	// ResolveProg maps a program fd from a prog-array slot to its
	// executable instructions (set by the kernel facade); nil disables
	// tail calls at runtime.
	ResolveProg func(fd int32) *isa.Program

	rng    uint64
	timeNS uint64

	// execs holds released executions for NewExec to reuse. They hold
	// nothing of the memory domain, so they outlive Reset.
	execs []*Exec
}

// NewMachine builds a fresh simulated kernel with the given bug knobs.
func NewMachine(b bugs.Set) *Machine {
	m := &Machine{
		Helpers: helpers.NewRegistry(),
		BTF:     btf.NewKernelRegistry(),
		Bugs:    b,
	}
	m.Helpers.Bug10Armed = b.Has(bugs.Bug10IrqWork)
	m.Reset()
	return m
}

// Reset restores the machine to its just-constructed state: a fresh memory
// domain, lock and trace validators, empty map tables, and re-seeded
// RNG/clock. The helper and BTF registries are reused — they are immutable
// after construction (Bug10Armed depends only on the knob set, which does
// not change). Because the kernel-variable allocations replay in the same
// deterministic StructIDs order against a fresh domain, every address a
// program can observe is identical to a brand-new machine's, so replay
// harnesses may Reset one machine between probes instead of rebuilding it.
func (m *Machine) Reset() {
	m.Dom = kmem.NewDomain()
	m.Lockdep = lockdep.NewValidator()
	m.Trace = trace.NewManager()
	m.mapsByFD = make(map[int32]*maps.Map)
	m.mapsByAddr = make(map[uint64]*maps.Map)
	m.nextFD = 3
	m.lockClasses = make(map[string]*lockdep.Class)
	m.btfVars = make(map[btf.TypeID]*kmem.Allocation)
	m.PacketLen = 64
	m.rng = 0x853c49e6748fea9b
	m.timeNS = 1

	// The current task and one kernel variable per known struct type,
	// so PTR_TO_BTF_ID pointers resolve to real shadow-tracked objects.
	for _, id := range m.BTF.StructIDs() {
		s := m.BTF.Struct(id)
		a := m.Dom.Alloc(s.Size, "kvar:"+s.Name)
		m.btfVars[id] = a
	}
	m.currentTask = m.btfVars[btf.TaskStructID]
	// Give the task plausible field contents.
	binary.LittleEndian.PutUint32(m.currentTask.Data[8:], 1000)  // pid
	binary.LittleEndian.PutUint32(m.currentTask.Data[12:], 1000) // tgid
	copy(m.currentTask.Data[40:], "bvf-task")
}

// CreateMap allocates a map and returns its file descriptor.
func (m *Machine) CreateMap(spec maps.Spec) (int32, error) {
	fd := m.nextFD
	mp, err := maps.New(m.Dom, fd, spec)
	if err != nil {
		return 0, err
	}
	mp.SetBugs(maps.Bugs{BucketIterOOB: m.Bugs.Has(bugs.Bug9BucketIter)})
	m.nextFD++
	m.mapsByFD[fd] = mp
	m.mapsByAddr[mp.KernAddr] = mp
	return fd, nil
}

// MapByFD resolves a map file descriptor.
func (m *Machine) MapByFD(fd int32) *maps.Map { return m.mapsByFD[fd] }

// MapByAddr resolves a struct bpf_map kernel address.
func (m *Machine) MapByAddr(addr uint64) *maps.Map { return m.mapsByAddr[addr] }

// BTFVarAddr resolves a BTF type id to its kernel variable's address (the
// verifier's fixup callback).
func (m *Machine) BTFVarAddr(id int32) uint64 {
	if a, ok := m.btfVars[btf.TypeID(id)]; ok {
		return a.BaseAddr
	}
	return 0
}

// CurrentTaskAddr returns the current task_struct's address.
func (m *Machine) CurrentTaskAddr() uint64 { return m.currentTask.BaseAddr }

// lockClass interns lockdep classes by name.
func (m *Machine) lockClass(name string) *lockdep.Class {
	c, ok := m.lockClasses[name]
	if !ok {
		c = lockdep.NewClass(name)
		m.lockClasses[name] = c
	}
	return c
}

// Random returns the next deterministic pseudo-random number
// (splitmix64).
func (m *Machine) Random() uint64 {
	m.rng += 0x9e3779b97f4a7c15
	z := m.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Time returns monotonically increasing nanoseconds.
func (m *Machine) Time() uint64 {
	m.timeNS += 1000
	return m.timeNS
}

// StepLimitError aborts an execution that exceeded its instruction
// budget. It is a resource limit, not a bug indicator.
type StepLimitError struct{ Steps int }

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("runtime: step limit exceeded after %d instructions", e.Steps)
}

// RangeViolationError is raised by the sanitizer's alu_limit assertion:
// the runtime value of a register escaped the range the verifier believed
// it had, proving a range-analysis correctness bug (§4.2).
type RangeViolationError struct {
	PC    int
	Value uint64
}

func (e *RangeViolationError) Error() string {
	return fmt.Sprintf("bpf_asan: register value %#x outside verifier-computed alu_limit at insn %d", e.Value, e.PC)
}

// ExecOutcome is the result of one program execution.
type ExecOutcome struct {
	R0    uint64
	Steps int
	// Err is the fault that ended execution early, if any: a
	// *kmem.Report, *kmem.FaultError, *RangeViolationError,
	// *lockdep.Violation, *trace.RecursionError, *helpers.PanicError
	// or *StepLimitError.
	Err error
}
