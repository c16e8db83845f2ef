// Command perfbench is the simulator's end-to-end benchmark. It runs one
// workload through the public simulator API for a fixed host time and
// prints the workload's metrics as one JSON object on the last line of
// standard output. With -trace 1 it instead prints the per-layer
// metrics of a traced run. See README.md for the workloads, the metrics
// and why each is there.
//
// Build and run it from the repository root with run.sh:
//
//	bash _perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how many times a run repeats the workload's set-up;
// setup_s is the median, which drops the first set-up's cold caches.
const setupReps = 25

// minPasses is the fewest timed passes a phase makes, however short
// its time budget.
const minPasses = 3

type metric struct {
	name  string
	value float64
	unit  string
}

// result is what the last line of the output reports.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	ordered   []metric                  // Metrics in print order
	digest    uint64                    // sim.stats_digest of the reference pass
}

func main() {
	name := flag.String("workload", "", "workload: fig6-sweep, multiprog-mix or suite")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds of timed passes")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the CPU profile of the traced run")
	flag.Parse()

	w, err := workloadByName(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be > 0, got %v", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var r *result
	if *trace == 1 {
		r, err = tracedRun(w, *seed, budget, *workdir)
	} else {
		r, err = timedRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range r.ordered {
		fmt.Printf("%-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	printJSON(map[string]any{
		"provenance":       provenance(w, *seed, *seconds, *trace),
		"sim.stats_digest": fmt.Sprintf("%016x", r.digest),
	})
	r.Metrics = map[string]map[string]any{}
	for _, m := range r.ordered {
		r.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	printJSON(r)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// provenance says which code, toolchain, host and settings produced a
// run's numbers.
func provenance(w *workload, seed uint64, seconds float64, trace int) map[string]any {
	rev, dirty := "unknown", "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload":         w.name,
		"seed":             seed,
		"seconds":          seconds,
		"trace":            trace,
		"scale":            w.scale,
		"parallel_domains": w.parallelDomains,
		"runner_workers":   w.workers,
		"git_revision":     rev,
		"git_dirty":        dirty,
		"go_version":       runtime.Version(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"GOGC":             os.Getenv("GOGC"),
		"GOMEMLIMIT":       os.Getenv("GOMEMLIMIT"),
	}
}

// setUp prepares the workload setupReps times and returns the last
// plan with the median set-up and kernel-build times.
func setUp(w *workload, seed uint64) (plan, time.Duration, time.Duration, error) {
	var setups, builds []time.Duration
	var p plan
	for range setupReps {
		runtime.GC()
		start := time.Now()
		var err error
		p, err = w.prepare(w, seed)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start))
		builds = append(builds, p.buildTime())
	}
	return p, median(setups), median(builds), nil
}

// phase is a run of passes, each checked against the reference pass.
type phase struct {
	walls, cpus       []time.Duration
	blocks            uint64
	attempted, failed int
}

// runPhase makes passes until budget has elapsed (and at least
// minPasses), collecting the heap between passes so each starts from
// the same state. A pass whose simulated statistics differ from the
// reference pass counts as failed: the simulator is deterministic.
func runPhase(p plan, ref passResult, budget time.Duration, tr *tracer) (phase, error) {
	var ph phase
	start := time.Now()
	for len(ph.walls) < minPasses || time.Since(start) < budget {
		runtime.GC()
		r, err := p.pass(tr)
		if err != nil {
			return ph, err
		}
		ph.walls = append(ph.walls, r.wall)
		ph.cpus = append(ph.cpus, r.cpu)
		ph.blocks += r.blocks
		ph.attempted += r.attempted
		ph.failed += r.failed
		if r.digest != ref.digest {
			ph.failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: stats digest %016x, reference pass %016x\n",
				len(ph.walls), r.digest, ref.digest)
		}
	}
	return ph, nil
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w *workload, seed uint64, budget time.Duration) (*result, error) {
	p, setup, _, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	ref, err := p.pass(nil) // warm-up, and the reference statistics
	if err != nil {
		return nil, err
	}
	b0 := heapAllocBytes()
	ph, err := runPhase(p, ref, budget, nil)
	if err != nil {
		return nil, err
	}
	bytes := heapAllocBytes() - b0
	attempted := ref.attempted + ph.attempted
	failed := ref.failed + ph.failed
	wall := median(ph.walls).Seconds()
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		digest:    ref.digest,
		ordered: []metric{
			{"wall_s", wall, "s"},
			{"sim_insts_per_s", float64(ref.insts) / median(ph.cpus).Seconds(), "1/cpu-s"},
			{"setup_s", setup.Seconds(), "s"},
			{"alloc_bytes_per_block", float64(bytes) / float64(ph.blocks), "B/block"},
			{"success_rate", float64(attempted-failed) / float64(attempted), "ratio"},
		},
	}, nil
}

// tracedRun measures the per-layer metrics. It times untraced passes,
// then traced ones under a CPU profile that go tool pprof splits by
// package (the ratio of the two is trace.overhead). Chip workloads then
// run at ParallelDomains 1 and 2, which must give identical statistics
// for every program. The phases share the budget equally, so a traced
// run takes as long as an untraced one.
func tracedRun(w *workload, seed uint64, budget time.Duration, workdir string) (*result, error) {
	p, _, build, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	cp, isChips := p.(*chipPlan)
	phaseBudget := budget / 2
	if isChips {
		phaseBudget = budget / 3
	}
	ref, err := p.pass(nil)
	if err != nil {
		return nil, err
	}
	base, err := runPhase(p, ref, phaseBudget, nil)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(workdir, "perfbench-"+w.name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	tr := newTracer()
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	traced, err := runPhase(p, ref, phaseBudget, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	shares, err := hostShares(profPath)
	if err != nil {
		return nil, err
	}

	attempted := ref.attempted + base.attempted + traced.attempted
	failed := ref.failed + base.failed + traced.failed
	parSpeedup := 0.0
	if isChips {
		var a, f int
		parSpeedup, a, f, err = parallelDomains(cp, ref, phaseBudget)
		if err != nil {
			return nil, err
		}
		attempted += a
		failed += f
	}

	n := float64(len(traced.walls))
	c := func(key string) float64 { return tr.counts[key] / n }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	blocks := float64(traced.blocks) / n
	runS := tr.run.Seconds() / n
	d := func(k string) float64 { return rt1[k] - rt0[k] }
	busyCPU := d("/cpu/classes/total:cpu-seconds") - d("/cpu/classes/idle:cpu-seconds")
	baseWall := median(base.walls).Seconds()
	ms := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }

	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		digest:    ref.digest,
		ordered: []metric{
			{"kernels.build_s", build.Seconds(), "s"},
			{"sim.setup_s", tr.setup.Seconds() / n, "s"},
			{"sim.setup_bytes_per_chip", ratio(float64(tr.setupBytes), float64(tr.chips)), "B/chip"},
			{"sim.run_s", runS, "s"},
			{"sim.events", c("events"), "count"},
			{"sim.ns_per_event", ratio(runS*1e9, c("events")), "ns"},
			{"sim.run_bytes_per_block", ratio(float64(tr.runBytes)/n, blocks), "B/block"},
			{"sim.blocks_flushed_per_fetched", ratio(c("blocks_flushed"), c("blocks_fetched")), "ratio"},
			{"sim.host_share", shares["sim.host_share"], "ratio"},
			{"sim.cycles", float64(ref.cycles), "cycles"},
			{"sim.cycles_per_s", float64(ref.cycles) / baseWall, "1/s"},
			{"domain.windows", c("windows"), "count"},
			{"domain.barrier_wait_cycles", c("barrier_wait"), "cycles"},
			{"domain.shared_grants", c("shared_grants"), "count"},
			{"domain.shared_wait_cycles", c("shared_wait"), "cycles"},
			{"domain.par_speedup", parSpeedup, "x"},
			{"noc.opnd.messages", c("opnd_messages"), "count"},
			{"noc.opnd.stall_cycles", c("opnd_stall"), "cycles"},
			{"noc.ctl.messages", c("ctl_messages"), "count"},
			{"noc.ctl.stall_cycles", c("ctl_stall"), "cycles"},
			{"noc.host_share", shares["noc.host_share"], "ratio"},
			{"mem.l1d.miss_rate", ratio(c("l1d_misses"), c("l1d_accesses")), "ratio"},
			{"mem.l2.accesses", c("l2_accesses"), "count"},
			{"mem.l2.miss_rate", ratio(c("l2_misses"), c("l2_accesses")), "ratio"},
			{"mem.lsq.nacks", c("lsq_nacks"), "count"},
			{"mem.dram.requests", c("dram_requests"), "count"},
			{"mem.host_share", shares["mem.host_share"], "ratio"},
			{"predictor.accuracy", ratio(c("pred_hits"), c("pred_hits")+c("pred_mispredicts")), "ratio"},
			{"predictor.host_share", shares["predictor.host_share"], "ratio"},
			{"exec.check_s", tr.check.Seconds() / n, "s"},
			{"exec.host_share", shares["exec.host_share"], "ratio"},
			{"runner.jobs", float64(tr.runnerJobs) / n, "count"},
			{"runner.store_hits", float64(tr.storeHits) / n, "count"},
			{"runner.busy_share", ratio(tr.inJob.Seconds(), tr.runnerWall.Seconds()*float64(tr.workers)), "ratio"},
			{"experiments.render_s", tr.render.Seconds() / n, "s"},
			{"critpath.host_share", shares["critpath.host_share"], "ratio"},
			{"telemetry.host_share", shares["telemetry.host_share"], "ratio"},
			{"conv.host_share", shares["conv.host_share"], "ratio"},
			{"runtime.gc_cpu_share", ratio(d("/cpu/classes/gc/total:cpu-seconds"), busyCPU), "ratio"},
			{"runtime.malloc_share", shares["runtime.malloc_share"], "ratio"},
			{"runtime.gc_cycles", d("/gc/cycles/total:gc-cycles") / n, "count"},
			{"runtime.mallocs_per_block", ratio(d("/gc/heap/allocs:objects")/n, blocks), "1/block"},
			{"runtime.max_rss_mb", maxRSSMB(), "MB"},
			{"runtime.peak_live_heap_mb", float64(tr.peakLive) / (1 << 20), "MB"},
			{"job.ms_p50", ms(percentile(tr.jobs, 0.5)), "ms"},
			{"job.ms_p90", ms(percentile(tr.jobs, 0.9)), "ms"},
			{"trace.overhead", median(traced.walls).Seconds() / baseWall, "x"},
		},
	}, nil
}

// parallelDomains runs the plan's chips at ParallelDomains 1 and 2, one
// pass each per round with the order alternating, until budget has
// elapsed (at least two rounds). It returns the wall-time ratio of the
// medians. Every program's Stats must equal those of the reference pass,
// which ran at the workload's own setting.
func parallelDomains(p *chipPlan, ref passResult, budget time.Duration) (speedup float64, attempted, failed int, err error) {
	saved := p.parallelDomains
	defer func() { p.parallelDomains = saved }()
	walls := map[int][]time.Duration{}
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < budget; round++ {
		order := []int{1, 2}
		if round%2 == 1 {
			order = []int{2, 1}
		}
		for _, pd := range order {
			p.parallelDomains = pd
			runtime.GC()
			r, err := p.pass(nil)
			if err != nil {
				return 0, 0, 0, err
			}
			walls[pd] = append(walls[pd], r.wall)
			attempted += r.attempted + 1
			failed += r.failed
			if !reflect.DeepEqual(r.stats, ref.stats) {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: program statistics at ParallelDomains %d differ from the reference pass\n", pd)
			}
		}
	}
	return median(walls[1]).Seconds() / median(walls[2]).Seconds(), attempted, failed, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		panic("median of no durations")
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
