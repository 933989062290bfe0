package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	name   string
	parent int32 // index of the span that caused this one; -1 for a root
	trace  int64 // iteration index, or the unit ID on service-loopback
	start  int64 // nanoseconds since the tracer's epoch
	end    int64
	// n is the work the call did, counted at the same boundary: insns
	// processed by a verification, interpreter steps of a run, claims
	// checked by an oracle replay, 1 for a cache hit.
	n int64
}

// tracer keeps spans in memory until the run ends. The mutex makes one
// tracer usable from the service workload's concurrent workers; the fuzz
// mirrors give every shard goroutine its own tracer, so there it is
// never contended.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, trace int64) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, trace: trace, start: now, end: now})
	t.mu.Unlock()
	return id
}

// end closes span id, recording n units of work done by the call.
func (t *tracer) end(id int32, n int64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.spans[id].n = n
	t.mu.Unlock()
}

// endTrace closes span id and sets its trace ID, for calls whose trace
// is known only from the reply (a lease names its unit).
func (t *tracer) endTrace(id int32, trace int64) {
	t.end(id, 0)
	t.mu.Lock()
	t.spans[id].trace = trace
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat aggregates every span of one name.
type layerStat struct {
	calls int
	busy  int64   // summed durations, ns
	self  int64   // summed self times, ns
	work  int64   // summed n
	durs  []int64 // per-call durations, ns
	// worked counts the calls that did work (n > 0).
	worked int
	// selfWork is the self time of the calls that did work (n > 0), the
	// base of per-unit-of-work rates such as ns per simulated insn.
	selfWork int64
}

// analyze aggregates spans by name. A span's self time is its duration
// minus the part of it covered by the union of its children, so
// overlapping children are not subtracted twice.
func analyze(spans []span) map[string]*layerStat {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range spans {
		ls := out[s.name]
		if ls == nil {
			ls = &layerStat{}
			out[s.name] = ls
		}
		d := s.end - s.start
		self := d - covered(s, spans, kids[int32(i)])
		ls.calls++
		ls.busy += d
		ls.self += self
		ls.work += s.n
		if s.n > 0 {
			ls.worked++
			ls.selfWork += self
		}
		ls.durs = append(ls.durs, d)
	}
	return out
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, children []int32) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(spans[c].start, parent.start), min(spans[c].end, parent.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailLadder lists the percentiles a _tail metric may report, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tail picks the highest percentile of tailLadder that leaves at least
// ten samples above it, and returns its value and percentile. With fewer
// than twenty samples no percentile qualifies and pct is 0.
func tail(sorted []int64) (value int64, pct float64) {
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank >= 1 && len(sorted)-rank >= 10 {
			return sorted[rank-1], p
		}
	}
	return 0, 0
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// writeSpans writes spans as gzip-compressed tab-separated lines — trace
// ID, span index, parent index, name, start and end in nanoseconds since
// the run began, work count — and returns the file path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "trace\tspan\tparent\tname\tstart_ns\tend_ns\tn")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.trace, i, s.parent, s.name, s.start, s.end, s.n)
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}
