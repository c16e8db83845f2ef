package tflex

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestParallelDomainsVsReferenceDifferential sweeps the domain engine's
// concurrency knobs — ParallelDomains in {1, 2, 8} crossed with
// GOMAXPROCS in {1, 4} — and checks every combination against the
// reference engine on the differential kernels at 1–8 composed cores.
// The partitioned engine's contract is that these knobs trade wall-clock
// time only: cycle counts, statistics and architectural state must be
// bit-identical however many OS threads the window scheduler is given.
func TestParallelDomainsVsReferenceDifferential(t *testing.T) {
	kernels := []string{"conv", "dither", "mcf"}
	coreCounts := []int{1, 2, 8}

	type key struct {
		name  string
		cores int
	}
	refs := map[key]*Result{}
	for _, name := range kernels {
		for _, cores := range coreCounts {
			refOpts := DefaultOptions()
			refOpts.Reference = true
			ref, err := RunKernel(name, 1, RunConfig{Cores: cores, Options: &refOpts})
			if err != nil {
				t.Fatalf("reference run %s/%dc: %v", name, cores, err)
			}
			refs[key{name, cores}] = ref
		}
	}

	for _, gomax := range []int{1, 4} {
		for _, domains := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/par=%d", gomax, domains), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomax))
				for _, name := range kernels {
					for _, cores := range coreCounts {
						fast, err := RunKernel(name, 1, RunConfig{Cores: cores, ParallelDomains: domains})
						if err != nil {
							t.Fatalf("%s/%dc: %v", name, cores, err)
						}
						ref := refs[key{name, cores}]
						if fast.Cycles != ref.Cycles {
							t.Errorf("%s/%dc: cycles diverge: par %d, reference %d", name, cores, fast.Cycles, ref.Cycles)
						}
						if !reflect.DeepEqual(fast.Stats, ref.Stats) {
							t.Errorf("%s/%dc: stats diverge:\npar       %+v\nreference %+v", name, cores, fast.Stats, ref.Stats)
						}
						if fast.Regs != ref.Regs {
							t.Errorf("%s/%dc: architectural registers diverge", name, cores)
						}
					}
				}
			})
		}
	}
}

// TestMultiprogramDomainModesIdentical is the differential for the case
// where domains actually multiply: four programs on four 8-core
// partitions.  The serial merged scheduler (ParallelDomains=1) is the
// ordering ground truth; the parallel worker pool must replay it
// bit-identically — per-processor cycle counts, statistics and
// architectural state — for every ParallelDomains/GOMAXPROCS
// combination.  Every run also validates each kernel's outputs against
// its pure-Go reference implementation.
func TestMultiprogramDomainModesIdentical(t *testing.T) {
	names := []string{"conv", "autcor", "tblook", "mcf"}
	runMulti := func(t *testing.T, domains int) []*Result {
		t.Helper()
		procs, err := Partition(8, len(names))
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		specs := make([]ProgramSpec, len(names))
		insts := make([]*KernelInstance, len(names))
		for i, name := range names {
			inst, err := BuildKernel(name, 1)
			if err != nil {
				t.Fatalf("build %s: %v", name, err)
			}
			insts[i] = inst
			specs[i] = ProgramSpec{Prog: inst.Prog, Cores: procs[i], Init: inst.Init}
		}
		results, err := RunMulti(specs, RunConfig{ParallelDomains: domains})
		if err != nil {
			t.Fatalf("RunMulti(par=%d): %v", domains, err)
		}
		for i, r := range results {
			if err := insts[i].Check(&r.Regs, r.Mem); err != nil {
				t.Fatalf("par=%d: %s output validation failed: %v", domains, names[i], err)
			}
		}
		return results
	}

	base := runMulti(t, 1)
	for _, gomax := range []int{1, 4} {
		for _, domains := range []int{2, 8} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/par=%d", gomax, domains), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomax))
				got := runMulti(t, domains)
				for i, r := range got {
					if r.Cycles != base[i].Cycles {
						t.Errorf("%s: cycles diverge: par %d, serial %d", names[i], r.Cycles, base[i].Cycles)
					}
					if !reflect.DeepEqual(r.Stats, base[i].Stats) {
						t.Errorf("%s: stats diverge:\npar    %+v\nserial %+v", names[i], r.Stats, base[i].Stats)
					}
					if r.Regs != base[i].Regs {
						t.Errorf("%s: architectural registers diverge", names[i])
					}
				}
			})
		}
	}
}

// TestOptimizedVsReferenceDifferential cross-checks the engine's default
// hot path (typed events on the calendar queue, pooled blocks, cached
// decode metadata) against the reference slow path (Options.Reference:
// container/heap queue, fresh block and metadata per fetch).  The two
// paths must produce bit-identical simulations — same cycle count, same
// statistics, same architectural state — on every kernel and composition
// size; any divergence is a bug in the optimizations, not a modeling
// choice.  Both sample every 64 cycles, a multiple of the domain
// engine's 16-cycle window, where its boundary-taken sampler rows must
// equal the reference loop's per-event ones.
func TestOptimizedVsReferenceDifferential(t *testing.T) {
	kernels := []string{"conv", "autcor", "dither", "tblook", "mcf"}
	for _, name := range kernels {
		for _, cores := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dc", name, cores), func(t *testing.T) {
				fast, err := RunKernel(name, 1, RunConfig{Cores: cores, SampleEvery: 64})
				if err != nil {
					t.Fatalf("optimized run: %v", err)
				}
				refOpts := DefaultOptions()
				refOpts.Reference = true
				ref, err := RunKernel(name, 1, RunConfig{Cores: cores, Options: &refOpts, SampleEvery: 64})
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if fast.Cycles != ref.Cycles {
					t.Errorf("cycles diverge: optimized %d, reference %d", fast.Cycles, ref.Cycles)
				}
				if !reflect.DeepEqual(fast.Stats, ref.Stats) {
					t.Errorf("stats diverge:\noptimized %+v\nreference %+v", fast.Stats, ref.Stats)
				}
				if fast.Regs != ref.Regs {
					t.Errorf("architectural registers diverge")
				}
				if fs, rs := fast.Samples.Series(), ref.Samples.Series(); len(fs) == 0 || !reflect.DeepEqual(fs, rs) {
					t.Errorf("sampler series diverge:\noptimized %+v\nreference %+v", fs, rs)
				}
			})
		}
	}
}
