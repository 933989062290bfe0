package core

import (
	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
)

// ReplayKernel is the kernel reproducer checks and the triage gauntlet
// replay programs on: a pristine kernel with the standard resource pool
// and tail-call target installed, in the fd order a campaign iteration
// sees. Before every replay but its first it is Reset and given its pool
// again (installPool: fresh memory domain, maps, fds, tail-call target),
// so each replay sees the environment a newly built kernel would,
// without paying for the build.
//
// Each surface method runs one replay and returns its first anomaly with
// the bug Kernel.Triage attributes it to, or nil when the replay raised
// none. A ReplayKernel is single-goroutine, like the kernel it wraps.
type ReplayKernel struct {
	k    *kernel.Kernel
	pool []MapHandle
	used bool
}

// NewReplayKernel builds a replay kernel. oracle must match the finding
// campaign's Oracle setting: soundness findings only reproduce under the
// oracle's hooked replay.
func NewReplayKernel(version kernel.Version, override bugs.Set, sanitize, oracle bool) (*ReplayKernel, error) {
	k := kernel.New(kernel.Config{Version: version, Bugs: override, Sanitize: sanitize, Oracle: oracle})
	pool, err := installPool(k, make([]MapHandle, 0, len(poolSpecs)))
	if err != nil {
		return nil, err
	}
	return &ReplayKernel{k: k, pool: pool}, nil
}

// pristine readies the kernel for the next replay.
func (r *ReplayKernel) pristine() error {
	if !r.used {
		r.used = true
		return nil
	}
	r.k.Reset()
	var err error
	r.pool, err = installPool(r.k, r.pool[:0])
	return err
}

// load readies the kernel and loads prog on it.
func (r *ReplayKernel) load(prog *isa.Program) (*kernel.LoadedProg, error) {
	if err := r.pristine(); err != nil {
		return nil, err
	}
	return r.k.LoadProgram(prog)
}

// attribute pairs an anomaly with the bug it is attributed to.
func (r *ReplayKernel) attribute(a *kernel.Anomaly, prog *isa.Program) (*kernel.Anomaly, bugs.ID) {
	if a == nil {
		return nil, 0
	}
	return a, r.k.Triage(a, prog)
}

// Direct replays prog the way a campaign iteration runs it: a load error
// is classified (Bug #8's syscall warning), and a loaded program runs
// runsPerProgram times.
func (r *ReplayKernel) Direct(prog *isa.Program) (*kernel.Anomaly, bugs.ID) {
	return r.direct(prog, runsPerProgram)
}

// direct is Direct with the run count as a parameter: a reproducer check
// of a bug raised only at load runs nothing.
func (r *ReplayKernel) direct(prog *isa.Program, runs int) (*kernel.Anomaly, bugs.ID) {
	lp, err := r.load(prog)
	if err != nil {
		return r.attribute(kernel.Classify(err), prog)
	}
	for run := 0; run < runs; run++ {
		if a := kernel.Classify(r.k.Run(lp).Err); a != nil {
			return r.attribute(a, prog)
		}
	}
	return nil, 0
}

// Offload runs an XDP program once as device-offloaded (Bug #11's
// missing execution-environment check). A load failure is no anomaly
// here: load outcomes belong to Direct.
func (r *ReplayKernel) Offload(prog *isa.Program) (*kernel.Anomaly, bugs.ID) {
	lp, err := r.load(prog)
	if err != nil {
		return nil, 0
	}
	lp.Offloaded = true
	return r.attribute(kernel.Classify(r.k.Run(lp).Err), prog)
}

// Dispatcher drives the XDP dispatcher into its torn-update window:
// Bug #7 fires when an execution races the third update.
func (r *ReplayKernel) Dispatcher(prog *isa.Program) (*kernel.Anomaly, bugs.ID) {
	lp, err := r.load(prog)
	if err != nil {
		return nil, 0
	}
	for i := 0; i < 3; i++ {
		r.k.UpdateDispatcher(lp)
	}
	return r.attribute(kernel.Classify(r.k.RunDispatcher().Err), prog)
}

// DumpMaps exercises the map-dump syscall surface: it puts three entries
// in each hash map of the pool and walks the map the way the dump
// syscalls do. Bug #9's bucket over-read fires on any non-empty hash
// map.
func (r *ReplayKernel) DumpMaps() (*kernel.Anomaly, bugs.ID) {
	if err := r.pristine(); err != nil {
		return nil, 0
	}
	for _, h := range r.pool {
		if h.Spec.Type != maps.Hash && h.Spec.Type != maps.LRUHash {
			continue
		}
		m := r.k.MapByFD(h.FD)
		if m == nil {
			continue
		}
		for i := 0; i < 3; i++ {
			mk := make([]byte, h.Spec.KeySize)
			mk[0] = byte(i + 1)
			_ = m.Update(mk, make([]byte, h.Spec.ValueSize), maps.UpdateAny)
		}
		if _, err := r.k.DumpMap(h.FD); err != nil {
			if a := kernel.Classify(err); a != nil {
				return r.attribute(a, nil)
			}
		}
	}
	return nil, 0
}
