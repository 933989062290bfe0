package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/isa"
)

// SupervisorConfig parameterizes the self-healing layer of a campaign:
// panic containment around each fuzzing iteration and wall-clock
// watchdogs on verification and execution. A ParallelCampaign shard that
// panics outside an iteration is recorded and ends the run; it is never
// restarted. With Enabled false every mechanism is off and the campaign
// behaves exactly as an unsupervised one — a fixed-seed run produces
// bit-identical statistics either way, because supervision only observes
// (recover, time checks) and never consumes campaign RNG.
type SupervisorConfig struct {
	// Enabled turns on panic containment and the watchdogs.
	Enabled bool
	// Deprecated: MaxRestarts is ignored. A shard that panics outside an
	// iteration ends the run instead of being restarted.
	MaxRestarts int
	// VerifyTimeout bounds wall-clock verification per program. Default
	// 2s; negative disables the verify watchdog while supervised.
	VerifyTimeout time.Duration
	// ExecTimeout bounds wall-clock execution per run. Default 2s;
	// negative disables the exec watchdog while supervised.
	ExecTimeout time.Duration
}

// withDefaults fills the zero fields of an enabled config.
func (s SupervisorConfig) withDefaults() SupervisorConfig {
	if !s.Enabled {
		return s
	}
	if s.VerifyTimeout == 0 {
		s.VerifyTimeout = 2 * time.Second
	}
	if s.ExecTimeout == 0 {
		s.ExecTimeout = 2 * time.Second
	}
	return s
}

// verifyTimeout returns the armed verify watchdog duration (0 = off).
func (s SupervisorConfig) verifyTimeout() time.Duration {
	if !s.Enabled || s.VerifyTimeout < 0 {
		return 0
	}
	return s.VerifyTimeout
}

// execTimeout returns the armed exec watchdog duration (0 = off).
func (s SupervisorConfig) execTimeout() time.Duration {
	if !s.Enabled || s.ExecTimeout < 0 {
		return 0
	}
	return s.ExecTimeout
}

// HarnessCrash is one contained harness panic — in a fuzzer a harness
// crash is itself an oracle signal worth recording, with enough context
// (stack, offending program) to reproduce it, not a reason to abort the
// campaign.
type HarnessCrash struct {
	// Shard is the shard index the panic happened on (-1 until the
	// parallel merge assigns it).
	Shard int
	// Iteration is the position on the iteration axis: shard-local in a
	// Campaign's own stats, translated to the global axis by the
	// parallel merge.
	Iteration int
	// Value is the stringified panic value.
	Value string
	// Stack is the goroutine stack at recovery.
	Stack string
	// Program is the program being fuzzed when the harness panicked, for
	// reproduction (nil when the panic hit outside an iteration).
	Program *isa.Program
}

// recoverCrash converts a recovered panic value into a HarnessCrash.
func recoverCrash(r any, iteration int, prog *isa.Program) HarnessCrash {
	return HarnessCrash{
		Shard:     -1,
		Iteration: iteration,
		Value:     fmt.Sprint(r),
		Stack:     string(debug.Stack()),
		Program:   prog,
	}
}
