// Package backoff is the shared exponential-backoff policy used by every
// retry loop in the runtime: quarantine re-validation and minimization
// retries (triage), and worker→coordinator RPC retries (orchestrator).
// One implementation keeps the semantics identical everywhere — attempt
// 1 sleeps Base, each further attempt doubles it, capped at Max — and
// adds the one thing the distributed callers need that the in-process
// one does not: seeded-deterministic jitter, so a fleet of workers
// retrying against a briefly-unreachable coordinator decorrelates
// without giving up reproducible tests.
package backoff

import "time"

// Policy shapes an exponential backoff schedule. The zero value is not
// useful; fill Base and Max (Exp with Jitter 0 reproduces the historic
// triage backoff helper exactly).
type Policy struct {
	// Base is the delay before the first retry; each subsequent attempt
	// doubles it.
	Base time.Duration
	// Max caps the delay.
	Max time.Duration
	// Jitter in [0,1) subtracts up to that fraction of the delay,
	// deterministically keyed by Seed and the attempt number. 0 disables
	// jitter.
	Jitter float64
	// Seed keys the deterministic jitter stream. Two policies with the
	// same Seed produce the same schedule; workers seed it with a hash of
	// their identity so a fleet's retries spread out reproducibly.
	Seed int64
}

// Exp returns a plain exponential policy (no jitter), the schedule the
// triage gauntlet has always used.
func Exp(base, max time.Duration) Policy {
	return Policy{Base: base, Max: max}
}

// Delay returns the sleep before attempt n (1-based). n <= 1 returns the
// (jittered) Base; the delay doubles per attempt until it reaches Max.
func (p Policy) Delay(n int) time.Duration {
	d := p.Base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.Max {
			d = p.Max
			break
		}
	}
	if d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 && d > 0 {
		// splitmix64 over (seed, attempt) gives a uniform fraction in
		// [0,1) without any shared RNG state — Delay stays pure.
		u := float64(splitmix64(uint64(p.Seed)^uint64(n))>>11) / (1 << 53)
		d -= time.Duration(float64(d) * p.Jitter * u)
	}
	return d
}

// DelayWithHint returns the sleep before attempt n when the server
// supplied a Retry-After hint. The hint is clamped into the jitter
// envelope rather than obeyed verbatim: it can stretch the schedule (a
// shedding coordinator knows better than the client's fixed curve) but
// never past Max, and the policy's jitter still applies on top — a fleet
// told "retry after 2s" must spread over [2s·(1-Jitter), 2s], not
// hammer back in lockstep at exactly 2s. A zero or negative hint
// degrades to the plain Delay schedule.
func (p Policy) DelayWithHint(n int, hint time.Duration) time.Duration {
	if hint <= 0 {
		return p.Delay(n)
	}
	d := p.Base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.Max {
			d = p.Max
			break
		}
	}
	if hint > d {
		d = hint
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 && d > 0 {
		u := float64(splitmix64(uint64(p.Seed)^uint64(n))>>11) / (1 << 53)
		d -= time.Duration(float64(d) * p.Jitter * u)
	}
	return d
}

// Retry calls fn up to attempts times, sleeping p.Delay(attempt) between
// failures via sleep (pass nil for time.Sleep). It returns nil on the
// first success, or the last error once the attempts are exhausted.
func Retry(attempts int, p Policy, sleep func(time.Duration), fn func() error) error {
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for n := 1; n <= attempts; n++ {
		if err = fn(); err == nil {
			return nil
		}
		if n < attempts {
			sleep(p.Delay(n))
		}
	}
	return err
}

// splitmix64 is the standard avalanche mix (same constants as
// internal/faultinject), here keying jitter fractions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
