package main

import (
	"reflect"
	"slices"
	"testing"
)

func mustPass(t *testing.T, name string, seed uint64) (plan, passResult) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.prepare(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d checks failed", name, seed, r.failed, r.attempted)
	}
	return p, r
}

func programs(p plan) []string {
	var names []string
	for _, job := range p.(*chipPlan).jobs {
		names = append(names, jobNames(job)...)
	}
	return names
}

// On multiprog-mix the seed chooses only which programs share a chip:
// two seeds run the same programs, in different mixes, and commit the
// same number of instructions.
func TestMixSeedsRunTheSamePrograms(t *testing.T) {
	p1, r1 := mustPass(t, "multiprog-mix", 1)
	p2, r2 := mustPass(t, "multiprog-mix", 2)
	a, b := programs(p1), programs(p2)
	if slices.Equal(a, b) {
		t.Fatal("seeds 1 and 2 gave the same mix")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 run different programs:\n%v\n%v", a, b)
	}
	if r1.insts != r2.insts || r1.blocks != r2.blocks {
		t.Fatalf("committed insts/blocks: seed 1 %d/%d, seed 2 %d/%d", r1.insts, r1.blocks, r2.insts, r2.blocks)
	}
}

// One seed prepared and run twice gives identical simulated statistics.
func TestSeedRepeats(t *testing.T) {
	_, r1 := mustPass(t, "multiprog-mix", 7)
	_, r2 := mustPass(t, "multiprog-mix", 7)
	if r1.digest != r2.digest || !reflect.DeepEqual(r1.stats, r2.stats) {
		t.Fatalf("seed 7 twice: digests %016x and %016x", r1.digest, r2.digest)
	}
}

// fig6-sweep and suite do not depend on the seed.
func TestSeedInvariantWorkloads(t *testing.T) {
	for _, name := range []string{"fig6-sweep", "suite"} {
		_, r1 := mustPass(t, name, 1)
		_, r2 := mustPass(t, name, 99)
		if r1.digest != r2.digest || r1.insts != r2.insts || r1.blocks != r2.blocks || r1.cycles != r2.cycles {
			t.Errorf("%s: seed 1 (digest %016x, %d insts, %d cycles) vs seed 99 (digest %016x, %d insts, %d cycles)",
				name, r1.digest, r1.insts, r1.cycles, r2.digest, r2.insts, r2.cycles)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc": "runtime",
		"github.com/clp-sim/tflex/internal/sim.(*Chip).runSingle":                             "github.com/clp-sim/tflex/internal/sim",
		"github.com/clp-sim/tflex/internal/noc.(*link).reserve":                               "github.com/clp-sim/tflex/internal/noc",
		"github.com/clp-sim/tflex/internal/runner.(*Store[go.shape.string,go.shape.int]).Get": "github.com/clp-sim/tflex/internal/runner",
		"github.com/clp-sim/tflex/internal/runner.Get[github.com/clp-sim/tflex/x.T]":          "github.com/clp-sim/tflex/internal/runner",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
