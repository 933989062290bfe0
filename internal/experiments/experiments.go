// Package experiments regenerates every table and figure from the paper's
// evaluation (§6) against the simulated kernel:
//
//   - Table 2  — previously unknown vulnerabilities found (RQ1)
//   - Figure 6 — verifier branch coverage over the campaign, per kernel
//   - Table 3  — final coverage statistics with improvement ratios
//   - §6.3     — verifier acceptance rates and rejection errno histogram
//   - §6.4     — sanitation overhead (execution slowdown + instruction
//     footprint) over a self-test corpus
//
// Wall-clock time is replaced by iteration budgets (deterministic seeds);
// the comparison *shape* — who wins, by roughly what factor, where the
// curves separate — is the reproduction target, not absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/runtime"
	"repro/internal/sanitizer"
	"repro/internal/verifier"
)

// Tool identifies one fuzzer under comparison.
type Tool struct {
	Name     string
	Source   core.ProgramSource
	Sanitize bool
	// MutateBias overrides the campaign default (0 keeps it).
	MutateBias int
}

// Tools returns the three-way comparison set from the paper.
func Tools() []Tool {
	return []Tool{
		{Name: "BVF", Source: core.BVFSource(true), Sanitize: true},
		{Name: "Syzkaller", Source: baseline.Syz{}, Sanitize: false},
		{Name: "Buzzer", Source: baseline.Buzz{Mode: baseline.BuzzALUJmp}, Sanitize: false},
	}
}

// runCampaign runs one experiment campaign: a single unsupervised
// instance, the configuration the §6 reproduction is validated against.
func runCampaign(tool Tool, v kernel.Version, seed int64, iters int) (*core.Stats, error) {
	cfg := core.CampaignConfig{
		Source:     tool.Source,
		Version:    v,
		Sanitize:   tool.Sanitize,
		Seed:       seed,
		MutateBias: tool.MutateBias,
		// The paper's tools schedule one mutant per corpus pick; the
		// sibling-batch scheduler reweights the generate/mutate mix
		// (one bias draw now yields a whole batch), which shifts
		// acceptance rates and per-iteration coverage away from the
		// §6.3/Table 3 methodology. Paper-comparison experiments pin
		// the unbatched schedule; the scheduler's own numbers live in
		// EXPERIMENTS.md "Cache-locality scheduling" and BENCH_6.json.
		MutateBatch: 1,
	}
	return core.NewCampaign(cfg).Run(iters)
}

// ---------------------------------------------------------------------
// Table 2

// Table2Row is one bug's discovery record across tools.
type Table2Row struct {
	ID          bugs.ID
	Component   string
	Description string
	FoundBy     map[string]int // tool -> iteration of first discovery (-1 absent)
	Indicator   kernel.Indicator
}

// Table2Result aggregates the RQ1 experiment.
type Table2Result struct {
	Budget int
	Seeds  int
	Rows   []Table2Row
	// PerTool counts: total bugs and verifier correctness bugs.
	Total    map[string]int
	Verifier map[string]int
}

var bugDescriptions = map[bugs.ID]string{
	bugs.Bug1NullnessProp:   "Incorrect nullness propagation of pointer comparisons causes invalid memory access",
	bugs.Bug2TaskAccess:     "Incorrect task struct access validation leads to out-of-bound access",
	bugs.Bug3KfuncBacktrack: "Incorrect check on kfunc call operations causes verifier backtracking bug",
	bugs.Bug4TracePrintk:    "Missing check on programs attached to bpf_trace_printk causes deadlock",
	bugs.Bug5Contention:     "Missing validation on contention_begin causes inconsistent lock state error",
	bugs.Bug6SendSignal:     "Missing strict checking on signal sending of programs causes kernel panic",
	bugs.Bug7Dispatcher:     "Missing sync between dispatcher update and execution leads to null-ptr-deref",
	bugs.Bug8Kmemdup:        "Incorrect using of kmemdup() leads to failure in duplicating insns",
	bugs.Bug9BucketIter:     "Incorrect bucket iterating in the failure case of lock acquiring causes oob access",
	bugs.Bug10IrqWork:       "Incorrect using of irq_work_queue in a helper function leads to lock bug",
	bugs.Bug11XDPDevProg:    "Incorrect execution env, attempt to run device eBPF program on the host",
	bugs.CVE2022_23222:      "ALU on nullable map value pointers allows out-of-bound access (v5.15 era)",
}

// Table2 runs the three tools against bpf-next with every knob armed and
// reports which seeded bugs each discovered. seeds campaigns per tool are
// merged (earliest discovery wins), mirroring the paper's repeated runs.
func Table2(budget, seeds int) (*Table2Result, error) {
	res := &Table2Result{
		Budget:   budget,
		Seeds:    seeds,
		Total:    make(map[string]int),
		Verifier: make(map[string]int),
	}
	// Campaigns are independent (each owns its kernel); run them in
	// parallel across tools and seeds.
	type result struct {
		tool string
		seed int
		st   *core.Stats
		err  error
	}
	var wg sync.WaitGroup
	results := make(chan result, len(Tools())*seeds)
	for _, tool := range Tools() {
		for s := 0; s < seeds; s++ {
			wg.Add(1)
			go func(tool Tool, s int) {
				defer wg.Done()
				st, err := runCampaign(tool, kernel.BPFNext, int64(s+1), budget)
				results <- result{tool: tool.Name, seed: s, st: st, err: err}
			}(tool, s)
		}
	}
	wg.Wait()
	close(results)
	found := map[string]map[bugs.ID]int{}
	for _, tool := range Tools() {
		found[tool.Name] = map[bugs.ID]int{}
	}
	for r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for key, rec := range r.st.Bugs {
			// Table 2 counts bugs, not manifestations: fold the (possibly
			// several) oracle signatures of one knob to the earliest hit.
			at := rec.FoundAt + r.seed*budget
			if prev, ok := found[r.tool][key.ID]; !ok || at < prev {
				found[r.tool][key.ID] = at
			}
		}
	}
	for _, id := range bugs.AllIDs() {
		if id == bugs.CVE2022_23222 {
			continue // fixed in bpf-next; see the CVE example instead
		}
		row := Table2Row{
			ID: id, Component: id.Component(),
			Description: bugDescriptions[id],
			FoundBy:     map[string]int{},
		}
		for _, tool := range Tools() {
			if at, ok := found[tool.Name][id]; ok {
				row.FoundBy[tool.Name] = at
				res.Total[tool.Name]++
				if id.IsVerifierCorrectness() {
					res.Verifier[tool.Name]++
				}
			} else {
				row.FoundBy[tool.Name] = -1
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the table.
func (r *Table2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 2: vulnerabilities found on bpf-next (%d iterations x %d seeds per tool)\n", r.Budget, r.Seeds)
	fmt.Fprintf(w, "%-4s %-11s %-74s %-10s %-11s %-8s\n", "#", "Component", "Description", "BVF", "Syzkaller", "Buzzer")
	for i, row := range r.Rows {
		cell := func(tool string) string {
			if at := row.FoundBy[tool]; at >= 0 {
				return fmt.Sprintf("@%d", at)
			}
			return "-"
		}
		fmt.Fprintf(w, "%-4d %-11s %-74s %-10s %-11s %-8s\n",
			i+1, row.Component, row.Description, cell("BVF"), cell("Syzkaller"), cell("Buzzer"))
	}
	fmt.Fprintf(w, "\nTotals: ")
	for _, tool := range Tools() {
		fmt.Fprintf(w, "%s %d bugs (%d verifier correctness)  ",
			tool.Name, r.Total[tool.Name], r.Verifier[tool.Name])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper:  BVF 11 bugs (6 verifier correctness); Syzkaller and Buzzer found none in two weeks.")
}

// ---------------------------------------------------------------------
// Figure 6 + Table 3

// CoverageSeries is one tool's coverage curve on one kernel version.
type CoverageSeries struct {
	Tool    string
	Version kernel.Version
	Curve   []core.CurvePoint
	Final   int
}

// Fig6Result holds every series plus the Table 3 aggregation.
type Fig6Result struct {
	Budget  int
	Repeats int
	Series  []CoverageSeries
}

// Fig6 runs each tool on each kernel version for the given iteration
// budget, averaging repeats, and returns the coverage curves.
func Fig6(budget, repeats int) (*Fig6Result, error) {
	res := &Fig6Result{Budget: budget, Repeats: repeats}
	type cell struct {
		stats []*core.Stats
		err   error
	}
	cells := make([]cell, len(kernel.AllVersions)*len(Tools()))
	var wg sync.WaitGroup
	for vi, v := range kernel.AllVersions {
		for ti, tool := range Tools() {
			wg.Add(1)
			go func(idx int, v kernel.Version, tool Tool) {
				defer wg.Done()
				c := &cells[idx]
				for rep := 0; rep < repeats; rep++ {
					st, err := runCampaign(tool, v, int64(100+rep), budget)
					if err != nil {
						c.err = err
						return
					}
					c.stats = append(c.stats, st)
				}
			}(vi*len(Tools())+ti, v, tool)
		}
	}
	wg.Wait()
	for vi, v := range kernel.AllVersions {
		for ti, tool := range Tools() {
			c := &cells[vi*len(Tools())+ti]
			if c.err != nil {
				return nil, c.err
			}
			var acc []core.CurvePoint
			final := 0
			for _, st := range c.stats {
				if acc == nil {
					acc = make([]core.CurvePoint, len(st.Curve))
					copy(acc, st.Curve)
				} else {
					for i := range acc {
						if i < len(st.Curve) {
							acc[i].Branches += st.Curve[i].Branches
						}
					}
				}
				final += st.Coverage.Count()
			}
			for i := range acc {
				acc[i].Branches /= repeats
			}
			res.Series = append(res.Series, CoverageSeries{
				Tool: tool.Name, Version: v, Curve: acc, Final: final / repeats,
			})
		}
	}
	return res, nil
}

// Print renders ASCII curves (Figure 6) followed by Table 3.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: verifier branch coverage over %d iterations (avg of %d runs)\n", r.Budget, r.Repeats)
	for _, v := range kernel.AllVersions {
		fmt.Fprintf(w, "\n-- Linux %s --\n", v)
		max := 1
		for _, s := range r.Series {
			if s.Version == v && s.Final > max {
				max = s.Final
			}
		}
		for _, s := range r.Series {
			if s.Version != v {
				continue
			}
			fmt.Fprintf(w, "%-10s |", s.Tool)
			for _, pt := range sampled(s.Curve, 56) {
				fmt.Fprint(w, spark(pt.Branches, max))
			}
			fmt.Fprintf(w, "| %d\n", s.Final)
		}
	}
	fmt.Fprintln(w, "\nTable 3: final coverage (improvement of BVF in parentheses)")
	fmt.Fprintf(w, "%-10s %-8s %-18s %-18s\n", "Version", "BVF", "Syzkaller", "Buzzer")
	type agg struct{ bvf, syz, buzz int }
	var overall agg
	for _, v := range kernel.AllVersions {
		var a agg
		for _, s := range r.Series {
			if s.Version != v {
				continue
			}
			switch s.Tool {
			case "BVF":
				a.bvf = s.Final
			case "Syzkaller":
				a.syz = s.Final
			case "Buzzer":
				a.buzz = s.Final
			}
		}
		overall.bvf += a.bvf
		overall.syz += a.syz
		overall.buzz += a.buzz
		fmt.Fprintf(w, "%-10s %-8d %-18s %-18s\n", v.String(), a.bvf,
			improvement(a.bvf, a.syz), improvement(a.bvf, a.buzz))
	}
	nv := len(kernel.AllVersions)
	fmt.Fprintf(w, "%-10s %-8d %-18s %-18s\n", "Overall", overall.bvf/nv,
		improvement(overall.bvf/nv, overall.syz/nv), improvement(overall.bvf/nv, overall.buzz/nv))
	fmt.Fprintln(w, "Paper: BVF +17.5% over Syzkaller and +541% (5.4x) over Buzzer overall.")
}

func improvement(bvf, other int) string {
	if other == 0 {
		return "0 (inf)"
	}
	return fmt.Sprintf("%d (+%.1f%%)", other, 100*(float64(bvf)-float64(other))/float64(other))
}

func sampled(curve []core.CurvePoint, n int) []core.CurvePoint {
	if len(curve) <= n {
		return curve
	}
	out := make([]core.CurvePoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, curve[i*len(curve)/n])
	}
	return out
}

var sparkRunes = []rune(" .:-=+*#%@")

func spark(v, max int) string {
	if max == 0 {
		return " "
	}
	i := v * (len(sparkRunes) - 1) / max
	return string(sparkRunes[i])
}

// ---------------------------------------------------------------------
// §6.3 acceptance rates

// AcceptanceResult holds the per-tool acceptance statistics.
type AcceptanceResult struct {
	Budget int
	Rows   []AcceptanceRow
}

// AcceptanceRow is one tool's acceptance profile.
type AcceptanceRow struct {
	Tool       string
	Rate       float64
	ErrnoHist  map[int]int
	ALUJmpMix  float64
	CorpusSize int
}

// Acceptance measures verifier acceptance rates for all four generator
// configurations (BVF, Syzkaller, both Buzzer modes) on bpf-next.
func Acceptance(budget int) (*AcceptanceResult, error) {
	tools := append(Tools(), Tool{
		Name:   "Buzzer(random)",
		Source: baseline.Buzz{Mode: baseline.BuzzRandom},
		// Random-bytes fuzzing has no validity-preserving mutation.
		MutateBias: -1,
	})
	res := &AcceptanceResult{Budget: budget}
	for _, tool := range tools {
		st, err := runCampaign(tool, kernel.BPFNext, 7, budget)
		if err != nil {
			return nil, err
		}
		alu := st.InsnClassMix["alu32"] + st.InsnClassMix["alu64"] +
			st.InsnClassMix["jmp"] + st.InsnClassMix["jmp32"]
		total := 0
		for _, n := range st.InsnClassMix {
			total += n
		}
		mix := 0.0
		if total > 0 {
			mix = float64(alu) / float64(total)
		}
		res.Rows = append(res.Rows, AcceptanceRow{
			Tool: tool.Name, Rate: st.AcceptanceRate(),
			ErrnoHist: st.ErrnoHist, ALUJmpMix: mix, CorpusSize: st.CorpusSize,
		})
	}
	return res, nil
}

// Print renders the acceptance table.
func (r *AcceptanceResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Acceptance rates over %d generated programs each (bpf-next):\n", r.Budget)
	fmt.Fprintf(w, "%-16s %-10s %-12s %-26s\n", "Tool", "Accepted", "ALU/JMP mix", "Top reject errnos")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %-10s %-12s %-26s\n",
			row.Tool,
			fmt.Sprintf("%.1f%%", 100*row.Rate),
			fmt.Sprintf("%.1f%%", 100*row.ALUJmpMix),
			errnoSummary(row.ErrnoHist))
	}
	fmt.Fprintln(w, "Paper: BVF 49%, Syzkaller 23.5%, Buzzer 1% (random) / 97% (ALU-JMP, 88.4%+ ALU/JMP insns);")
	fmt.Fprintln(w, "       EACCES and EINVAL dominate the rejections.")
}

func errnoSummary(h map[int]int) string {
	type kv struct{ errno, n int }
	var all []kv
	for e, n := range h {
		all = append(all, kv{e, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	names := map[int]string{verifier.EACCES: "EACCES", verifier.EINVAL: "EINVAL", verifier.E2BIG: "E2BIG", verifier.EPERM: "EPERM"}
	var parts []string
	for i, kv := range all {
		if i >= 3 {
			break
		}
		n := names[kv.errno]
		if n == "" {
			n = fmt.Sprintf("errno%d", kv.errno)
		}
		parts = append(parts, fmt.Sprintf("%s:%d", n, kv.n))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// ---------------------------------------------------------------------
// §6.4 sanitation overhead

// OverheadResult is the §6.4 measurement.
type OverheadResult struct {
	Programs int
	// MeanSlowdown is (sanitized time / raw time) - 1, from wall-clock
	// timing (noisy; best-of repeats).
	MeanSlowdown float64
	// DynamicSlowdown is the deterministic equivalent measured in
	// executed instructions: (sanitized steps / raw steps) - 1.
	DynamicSlowdown float64
	// MeanFootprint is sanitized slots / original slots (static).
	MeanFootprint float64
	// RawNsPerProg / SanNsPerProg are mean execution times.
	RawNsPerProg float64
	SanNsPerProg float64
}

// SelftestCorpus builds a deterministic corpus of verified programs
// standing in for the 708 manually-written verifier self-tests the paper
// measures (§6.4). Real self-tests are small, memory-access-dominated
// programs (they exist to exercise the access checks), so the corpus
// builder emits exactly that shape: a map-value or stack pointer set up
// in a short header, followed by a run of loads and stores with a little
// interleaved arithmetic. Programs without load/store are skipped, as in
// the paper.
func SelftestCorpus(target int) (*kernel.Kernel, []*kernel.LoadedProg, error) {
	k := kernel.New(kernel.Config{Version: kernel.BPFNext, Bugs: bugs.None(), Sanitize: false})
	arrFD, err := k.CreateMap(core.PoolSpecs()[0]) // 64-byte array values
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(708))
	var out []*kernel.LoadedProg
	for len(out) < target {
		p := selftestProgram(r, arrFD)
		lp, lerr := k.LoadProgram(p)
		if lerr != nil {
			return nil, nil, fmt.Errorf("experiments: self-test program rejected: %w", lerr)
		}
		out = append(out, lp)
	}
	return k, out, nil
}

// selftestProgram emits one verifier-self-test-style program: pointer
// setup, then a memory-op-dominated body.
func selftestProgram(r *rand.Rand, arrFD int32) *isa.Program {
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "selftest"}
	sizes := []uint8{isa.SizeB, isa.SizeH, isa.SizeW, isa.SizeDW}
	// Header: R6 points into the array map's value area.
	p.Insns = append(p.Insns,
		isa.LoadMapValue(isa.R6, arrFD, 0),
		isa.Mov64Reg(isa.R7, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R7, -32),
		isa.StoreImm(isa.SizeDW, isa.R10, -32, 1),
		isa.StoreImm(isa.SizeDW, isa.R10, -24, 2),
		isa.StoreImm(isa.SizeDW, isa.R10, -16, 3),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 4),
		isa.Mov64Imm(isa.R0, 0),
	)
	n := 4 + r.Intn(10)
	for i := 0; i < n; i++ {
		base, lim := isa.R6, 56
		if r.Intn(3) == 0 {
			base, lim = isa.R7, 24
		}
		sz := sizes[r.Intn(len(sizes))]
		off := int16(r.Intn(lim) &^ 7)
		switch r.Intn(16) {
		case 0, 1, 2, 3:
			p.Insns = append(p.Insns, isa.LoadMem(sz, isa.R8, base, off))
		case 4, 5, 6:
			p.Insns = append(p.Insns, isa.StoreImm(sz, base, off, int32(r.Intn(256))))
		case 7, 8, 9:
			p.Insns = append(p.Insns, isa.StoreMem(sz, base, isa.R0, off))
		case 10, 11, 12:
			p.Insns = append(p.Insns, isa.Alu64Imm(isa.ALUAdd, isa.R0, int32(r.Intn(64))))
		case 13, 14:
			p.Insns = append(p.Insns, isa.Alu64Imm(isa.ALUAnd, isa.R0, int32(1+r.Intn(255))))
		default:
			p.Insns = append(p.Insns, isa.Alu64Imm(isa.ALUXor, isa.R0, int32(r.Intn(64))))
		}
	}
	p.Insns = append(p.Insns, isa.Exit())
	return p
}

// Overhead measures execution time and instruction footprint before and
// after sanitation over the self-test corpus, repeated three times and
// averaged as in the paper.
func Overhead(corpusSize, repeats int) (*OverheadResult, error) {
	k, corpus, err := SelftestCorpus(corpusSize)
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{Programs: len(corpus)}

	var footSum float64
	type pair struct{ raw, san *isa.Program }
	pairs := make([]pair, 0, len(corpus))
	for _, lp := range corpus {
		san, stats, serr := sanitizer.Instrument(lp.Verified, lp.Res.RangeChecks)
		if serr != nil {
			return nil, serr
		}
		footSum += stats.Footprint()
		pairs = append(pairs, pair{raw: lp.Verified, san: san})
	}
	res.MeanFootprint = footSum / float64(len(pairs))

	measure := func(pick func(pair) *isa.Program) (float64, int) {
		var best time.Duration
		steps := 0
		for rep := 0; rep < repeats; rep++ {
			m := runtime.NewMachine(bugs.None())
			steps = 0
			start := time.Now()
			for _, pr := range pairs {
				x := runtime.NewExec(m, pick(pr))
				x.SetStepLimit(1 << 14)
				out := x.Run()
				steps += out.Steps
			}
			el := time.Since(start)
			if rep == 0 || el < best {
				best = el
			}
		}
		return float64(best.Nanoseconds()) / float64(len(pairs)), steps
	}
	var rawSteps, sanSteps int
	res.RawNsPerProg, rawSteps = measure(func(p pair) *isa.Program { return p.raw })
	res.SanNsPerProg, sanSteps = measure(func(p pair) *isa.Program { return p.san })
	if res.RawNsPerProg > 0 {
		res.MeanSlowdown = res.SanNsPerProg/res.RawNsPerProg - 1
	}
	if rawSteps > 0 {
		res.DynamicSlowdown = float64(sanSteps)/float64(rawSteps) - 1
	}
	_ = k
	return res, nil
}

// Print renders the overhead report.
func (r *OverheadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Sanitation overhead over %d self-test programs:\n", r.Programs)
	fmt.Fprintf(w, "  executed instructions: +%.0f%% (deterministic dynamic slowdown)\n",
		100*r.DynamicSlowdown)
	fmt.Fprintf(w, "  wall clock: %.0f ns -> %.0f ns per program (slowdown %.0f%%, noisy)\n",
		r.RawNsPerProg, r.SanNsPerProg, 100*r.MeanSlowdown)
	fmt.Fprintf(w, "  instruction footprint: %.2fx (static)\n", r.MeanFootprint)
	fmt.Fprintln(w, "Paper: ~90% execution slowdown and ~3.0x instruction footprint (708 self-tests).")
}
