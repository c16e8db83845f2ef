package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/experiments"
)

// maxCycles bounds every simulated chip, as tflex.Run does.
const maxCycles = 2_000_000_000

// workload is one input set of the benchmark. Its reason for existing
// is in README.md; the short form is on each constructor below.
type workload struct {
	name  string
	scale int
	// parallelDomains is the ParallelDomains setting of the workload's
	// chips (0: the engine default, one domain on the caller).
	parallelDomains int
	// workers is the runner's worker count (suite only).
	workers int
	// prepare is the one-time set-up for a seed: kernel builds,
	// partitions and mixes. It is what setup_s times.
	prepare func(w *workload, seed uint64) (plan, error)
}

// plan is a prepared workload. pass runs every job once; tr is nil
// outside the traced phase.
type plan interface {
	pass(tr *tracer) (passResult, error)
	// buildTime is how long prepare spent building kernels.
	buildTime() time.Duration
}

// passResult is what one pass over a workload's jobs did.
type passResult struct {
	wall      time.Duration
	cpu       time.Duration // host CPU time of the process, every thread
	insts     uint64        // committed simulated instructions
	blocks    uint64        // committed blocks
	cycles    uint64        // simulated chip cycles, summed over chips
	attempted int           // programs checked, or experiments run
	failed    int
	digest    uint64 // sim.stats_digest: every job's Stats, in job order
	// stats holds every program's statistics in job order (chip
	// workloads only); the traced run compares them across
	// ParallelDomains settings.
	stats []tflex.Stats
}

var workloads = []*workload{
	{name: "fig6-sweep", scale: 1, prepare: prepareFig6},
	{name: "multiprog-mix", scale: 4, parallelDomains: 2, prepare: prepareMix},
	{name: "suite", scale: 1, workers: 2, prepare: prepareSuite},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// placed is one program of a chip: a kernel instance on a processor.
type placed struct {
	name  string
	inst  *tflex.KernelInstance
	cores tflex.Processor
}

// chipJob is one simulated chip.
type chipJob struct {
	trips bool
	progs []placed
}

// chipPlan runs a list of chips, one after another, on the calling
// goroutine.
type chipPlan struct {
	jobs            []chipJob
	parallelDomains int
	build           time.Duration
}

func (p *chipPlan) buildTime() time.Duration { return p.build }

// buildKernels builds every suite kernel once at the given scale.
func buildKernels(scale int) (map[string]*tflex.KernelInstance, time.Duration, error) {
	start := time.Now()
	insts := map[string]*tflex.KernelInstance{}
	for _, name := range tflex.KernelNames() {
		inst, err := tflex.BuildKernel(name, scale)
		if err != nil {
			return nil, 0, err
		}
		insts[name] = inst
	}
	return insts, time.Since(start), nil
}

// prepareFig6 lays out the Fig 6 grid: every suite kernel on every
// composition size, plus the TRIPS baseline, one program per chip. The
// seed plays no part: the grid is fixed. Many short chips, so chip
// construction and allocation show here.
func prepareFig6(w *workload, _ uint64) (plan, error) {
	insts, build, err := buildKernels(w.scale)
	if err != nil {
		return nil, err
	}
	p := &chipPlan{parallelDomains: w.parallelDomains, build: build}
	for _, name := range tflex.KernelNames() {
		for _, n := range tflex.CompositionSizes() {
			rect, err := tflex.ComposeRect(0, 0, n)
			if err != nil {
				return nil, err
			}
			p.jobs = append(p.jobs, chipJob{progs: []placed{{name, insts[name], rect}}})
		}
		p.jobs = append(p.jobs, chipJob{trips: true, progs: []placed{{name, insts[name], tflex.TRIPSProcessor()}}})
	}
	return p, nil
}

// mixCopies is how many copies of each kernel the mix runs; it is also
// the number of programs per chip, each on one 8-core partition.
const mixCopies = 4

// prepareMix shuffles mixCopies copies of every suite kernel into chips
// of mixCopies programs each. The seed chooses only which programs
// share a chip, so every seed simulates the same programs. Long chips
// with four event domains, so the engine, the NoC and the lockstep
// scheduler show here and chip set-up does not.
func prepareMix(w *workload, seed uint64) (plan, error) {
	insts, build, err := buildKernels(w.scale)
	if err != nil {
		return nil, err
	}
	rects, err := tflex.Partition(8, mixCopies)
	if err != nil {
		return nil, err
	}
	var names []string
	for range mixCopies {
		names = append(names, tflex.KernelNames()...)
	}
	shuffle(names, seed)
	p := &chipPlan{parallelDomains: w.parallelDomains, build: build}
	for i := 0; i < len(names); i += mixCopies {
		var job chipJob
		for k, name := range names[i : i+mixCopies] {
			job.progs = append(job.progs, placed{name, insts[name], rects[k]})
		}
		p.jobs = append(p.jobs, job)
	}
	return p, nil
}

// shuffle permutes names by Fisher-Yates over a splitmix64 stream, so a
// seed gives the same mix on every Go version.
func shuffle(names []string, seed uint64) {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(names) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
}

func (p *chipPlan) pass(tr *tracer) (passResult, error) {
	var r passResult
	start, cpu0 := time.Now(), processCPU()
	for _, job := range p.jobs {
		if err := p.runChip(job, tr, &r); err != nil {
			return r, err
		}
	}
	r.wall, r.cpu = time.Since(start), processCPU()-cpu0
	r.digest = statsDigest(r.stats)
	return r, nil
}

// runChip builds one chip, runs it and checks every program's outputs
// against the kernel's Go reference. A wrong output counts as failed; a
// simulator error ends the pass.
func (p *chipPlan) runChip(job chipJob, tr *tracer, r *passResult) error {
	t0 := tr.mark()
	opts := tflex.DefaultOptions()
	if job.trips {
		opts = tflex.TRIPSOptions()
	}
	opts.ParallelDomains = p.parallelDomains
	chip := tflex.NewChip(opts)
	var reg *tflex.Metrics
	if tr != nil {
		reg = chip.Telemetry()
	}
	procs := make([]*tflex.Proc, len(job.progs))
	for i, pl := range job.progs {
		proc, err := chip.AddProc(pl.cores, pl.inst.Prog)
		if err != nil {
			return fmt.Errorf("%s: %w", pl.name, err)
		}
		pl.inst.Init(&proc.Regs, proc.Mem)
		procs[i] = proc
	}
	t1 := tr.mark()
	if err := chip.Run(maxCycles); err != nil {
		return fmt.Errorf("chip of %s: %w", jobNames(job), err)
	}
	t2 := tr.mark()
	var chipCycles uint64
	for i, proc := range procs {
		r.attempted++
		if err := job.progs[i].inst.Check(&proc.Regs, proc.Mem); err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s (chip of %s): %v\n", job.progs[i].name, jobNames(job), err)
		}
		r.insts += proc.Stats.InstsCommitted
		r.blocks += proc.Stats.BlocksCommitted
		chipCycles = max(chipCycles, proc.Stats.Cycles)
		r.stats = append(r.stats, proc.Stats)
	}
	r.cycles += chipCycles
	tr.chipDone(t0, t1, t2, reg)
	return nil
}

func jobNames(job chipJob) []string {
	var names []string
	for _, pl := range job.progs {
		names = append(names, pl.name)
	}
	return names
}

// statsDigest hashes every program's Stats in job order. %+v prints
// every field, so a field added to Stats joins the digest unasked.
func statsDigest(stats []tflex.Stats) uint64 {
	h := fnv.New64a()
	for i, st := range stats {
		fmt.Fprintf(h, "%d:%+v\n", i, st)
	}
	return h.Sum64()
}

// suiteExperiments is `tflexexp -exp all` in its order, with its
// default fig10 workload count and ablation composition.
var suiteExperiments = []struct {
	name string
	run  func(*experiments.Suite) (string, error)
}{
	{"table1", func(*experiments.Suite) (string, error) { return experiments.Table1(), nil }},
	{"fig5", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig5(); return out, err }},
	{"fig6", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig6(); return out, err }},
	{"table2", func(s *experiments.Suite) (string, error) { return s.Table2() }},
	{"fig7", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig7(); return out, err }},
	{"fig8", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig8(); return out, err }},
	{"fig9", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig9(); return out, err }},
	{"fig9x", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig9x(); return out, err }},
	{"handshake", func(s *experiments.Suite) (string, error) { _, out, err := s.Handshake(); return out, err }},
	{"fig10", func(s *experiments.Suite) (string, error) { _, out, err := s.Fig10(10); return out, err }},
	{"ablations", func(s *experiments.Suite) (string, error) { _, out, err := s.Ablations(8); return out, err }},
}

// suitePlan runs the paper's whole evaluation on a fresh Suite per pass,
// so every pass simulates every job (a Suite memoizes its results).
type suitePlan struct {
	scale, workers int
	build          time.Duration
}

func (p *suitePlan) buildTime() time.Duration { return p.build }

// prepareSuite builds every suite kernel once, which checks that the
// kernels layer can produce the suite's inputs at this scale; the Suite
// builds its own instances inside its jobs. The seed plays no part.
// This is the command users run, through the concurrent runner with
// telemetry armed on every chip.
func prepareSuite(w *workload, _ uint64) (plan, error) {
	_, build, err := buildKernels(w.scale)
	if err != nil {
		return nil, err
	}
	return &suitePlan{scale: w.scale, workers: w.workers, build: build}, nil
}

func (p *suitePlan) pass(tr *tracer) (passResult, error) {
	var r passResult
	start, cpu0 := time.Now(), processCPU()
	s := experiments.NewSuite(p.scale)
	s.SetJobs(p.workers)
	tr.armSuite(s)
	h := fnv.New64a()
	var spans time.Duration // summed per-experiment wall
	for _, e := range suiteExperiments {
		r.attempted++
		t0 := time.Now()
		out, err := e.run(s)
		spans += time.Since(t0)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: suite %s: %v\n", e.name, err)
		}
		fmt.Fprintf(h, "%s\n%s", e.name, out)
	}
	r.wall, r.cpu = time.Since(start), processCPU()-cpu0

	byJob := s.MetricsByJob()
	keys := make([]string, 0, len(byJob))
	for k := range byJob {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		snap := byJob[k]
		r.insts += uint64(snap.Sum("proc", ".insts.committed"))
		r.blocks += uint64(snap.Sum("proc", ".blocks.committed"))
		names := make([]string, 0, len(snap))
		for n := range snap {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(h, "%s\n", k)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%v\n", n, snap[n])
		}
	}
	sum := s.Summary()
	r.cycles = sum.SimCycles
	r.digest = h.Sum64()
	if r.blocks == 0 {
		return r, errors.New("suite committed no blocks")
	}
	return r, tr.suiteDone(sum, spans, p.workers, byJob)
}
