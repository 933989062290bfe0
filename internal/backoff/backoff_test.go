package backoff

import (
	"testing"
	"time"
)

func TestDelayExponentialCapped(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: 5 * time.Second}
	want := []time.Duration{
		50 * time.Millisecond,  // attempt 1
		100 * time.Millisecond, // 2
		200 * time.Millisecond, // 3
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		3200 * time.Millisecond,
		5 * time.Second, // capped
		5 * time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestDelayBaseAboveMax(t *testing.T) {
	p := Policy{Base: 10 * time.Second, Max: time.Second}
	if got := p.Delay(1); got != time.Second {
		t.Errorf("Delay(1) = %v, want clamp to %v", got, time.Second)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	p := Policy{Base: time.Second, Max: time.Minute, Jitter: 0.5, Seed: 42}
	q := Policy{Base: time.Second, Max: time.Minute, Jitter: 0.5, Seed: 43}
	sawDifferent := false
	for n := 1; n <= 10; n++ {
		full := Policy{Base: p.Base, Max: p.Max}.Delay(n)
		d1, d2 := p.Delay(n), p.Delay(n)
		if d1 != d2 {
			t.Fatalf("Delay(%d) not deterministic: %v vs %v", n, d1, d2)
		}
		if d1 > full || d1 < full/2 {
			t.Errorf("Delay(%d) = %v outside jitter band [%v, %v]", n, d1, full/2, full)
		}
		if q.Delay(n) != d1 {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Error("two seeds produced identical schedules; jitter is not seed-keyed")
	}
}

func TestDelayWithHintStretchesSchedule(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: 5 * time.Second}
	// A hint above the schedule value replaces it.
	if got := p.DelayWithHint(1, 2*time.Second); got != 2*time.Second {
		t.Errorf("DelayWithHint(1, 2s) = %v, want 2s", got)
	}
	// A hint below the schedule value never shortens the backoff: a
	// shedding server must not accelerate a client that is already
	// backing off harder on its own.
	if got := p.DelayWithHint(4, 10*time.Millisecond); got != p.Delay(4) {
		t.Errorf("DelayWithHint(4, 10ms) = %v, want schedule %v", got, p.Delay(4))
	}
	// A hint past Max is clamped to Max.
	if got := p.DelayWithHint(1, time.Minute); got != 5*time.Second {
		t.Errorf("DelayWithHint(1, 1m) = %v, want Max 5s", got)
	}
	// No hint degrades to the plain schedule.
	if got := p.DelayWithHint(3, 0); got != p.Delay(3) {
		t.Errorf("DelayWithHint(3, 0) = %v, want %v", got, p.Delay(3))
	}
}

func TestDelayWithHintJittered(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: time.Minute, Jitter: 0.5, Seed: 7}
	q := Policy{Base: 50 * time.Millisecond, Max: time.Minute, Jitter: 0.5, Seed: 8}
	hint := 2 * time.Second
	sawDifferent := false
	for n := 1; n <= 8; n++ {
		d1, d2 := p.DelayWithHint(n, hint), p.DelayWithHint(n, hint)
		if d1 != d2 {
			t.Fatalf("DelayWithHint(%d) not deterministic: %v vs %v", n, d1, d2)
		}
		// The pre-jitter value is the larger of the schedule and the hint.
		full := Policy{Base: p.Base, Max: p.Max}.Delay(n)
		if hint > full {
			full = hint
		}
		if d1 > full || d1 < full/2 {
			t.Errorf("DelayWithHint(%d) = %v outside jitter band [%v, %v]", n, d1, full/2, full)
		}
		if q.DelayWithHint(n, hint) != d1 {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Error("two seeds produced identical hinted schedules; shed load will not spread")
	}
}
