package sim

import (
	"bytes"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
)

// armBomb installs a test-only stall: from the first retired block on,
// an evFunc reschedules itself at the current cycle forever, so
// simulated time stops advancing while events keep executing.  The
// watchdog must catch this as a stall, not a hang.
func armBomb(proc *Proc) {
	armed := false
	var bomb func()
	bomb = func() { proc.scheduleEv(0, event{kind: evFunc, fn: bomb}) }
	proc.TraceBlocks(func(BlockEvent) {
		if !armed {
			armed = true
			bomb()
		}
	})
}

// TestStallWatchdogSingleDomain pins the watchdog contract on a
// one-domain chip: an injected non-advancing event storm fails the run
// with a stall diagnostic (instead of hanging), leaves a KStall record
// in the rings, and the failed run dumps a post-mortem to the flight
// sink.
func TestStallWatchdogSingleDomain(t *testing.T) {
	chip := New(DefaultOptions())
	chip.EnableFlight(256)
	var sink bytes.Buffer
	chip.SetFlightSink(&sink)
	proc, err := chip.AddProc(compose.MustRect(0, 0, 2), sumProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 50
	armBomb(proc)
	err = chip.Run(1_000_000)
	if err == nil {
		t.Fatal("run with injected stall succeeded; watchdog never fired")
	}
	if !strings.Contains(err.Error(), "stall watchdog") {
		t.Fatalf("run failed with %v, want a stall watchdog diagnostic", err)
	}
	dump := chip.FlightDump()
	if dump == nil || len(dump.Records(flight.KStall)) == 0 {
		t.Fatal("no KStall record in the flight rings after a watchdog trip")
	}
	if !strings.Contains(sink.String(), "flight recorder post-mortem") {
		t.Error("failed run did not dump a post-mortem to the flight sink")
	}
	if !strings.Contains(sink.String(), "stall") {
		t.Error("post-mortem text does not mention the stall")
	}
}

// TestStallWatchdogParallelDomains pins the same contract where it
// matters most: one stalled domain among several under the parallel
// scheduler must fail the whole run promptly — the stalled worker
// breaks out of its window, the barrier completes, and Run returns the
// diagnostic instead of deadlocking.
func TestStallWatchdogParallelDomains(t *testing.T) {
	opts := DefaultOptions()
	opts.ParallelDomains = 2
	chip := New(opts)
	chip.EnableFlight(256)
	p := sumProgram(t)
	var procs [2]*Proc
	for i, rect := range [][3]int{{0, 0, 2}, {2, 0, 2}} {
		pr, err := chip.AddProc(compose.MustRect(rect[0], rect[1], rect[2]), p)
		if err != nil {
			t.Fatal(err)
		}
		pr.Regs[1] = 50
		procs[i] = pr
	}
	armBomb(procs[0])
	err := chip.Run(1_000_000)
	if err == nil {
		t.Fatal("parallel run with injected stall succeeded; watchdog never fired")
	}
	if !strings.Contains(err.Error(), "stall watchdog") {
		t.Fatalf("parallel run failed with %v, want a stall watchdog diagnostic", err)
	}
	if dump := chip.FlightDump(); dump == nil || len(dump.Records(flight.KStall)) == 0 {
		t.Fatal("no KStall record in the flight rings after a parallel watchdog trip")
	}
}

// TestFlightPanicPostMortem pins the Run recover path: a panic inside
// the event loop dumps the rings to the sink before re-panicking.
func TestFlightPanicPostMortem(t *testing.T) {
	chip := New(DefaultOptions())
	chip.EnableFlight(128)
	var sink bytes.Buffer
	chip.SetFlightSink(&sink)
	proc, err := chip.AddProc(compose.MustRect(0, 0, 2), sumProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 50
	fired := false
	proc.TraceBlocks(func(BlockEvent) {
		if !fired {
			fired = true
			panic("injected panic")
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("injected panic did not propagate through Chip.Run")
		}
		if !strings.Contains(sink.String(), "flight recorder post-mortem (panic: injected panic)") {
			t.Errorf("panic did not dump a post-mortem; sink: %q", sink.String())
		}
	}()
	chip.Run(1_000_000) //nolint:errcheck // panics before returning
}

// TestDomainStatsAndBarrierAccounting runs a two-domain chip through
// the merged scheduler and checks the always-on per-domain counters:
// windows were crossed, events counted, barrier slack accumulated, and
// the stats survive with the flight recorder disabled.
func TestDomainStatsAndBarrierAccounting(t *testing.T) {
	opts := DefaultOptions()
	chip := New(opts) // no EnableFlight: counters must still work
	p := sumProgram(t)
	for _, rect := range [][3]int{{0, 0, 2}, {2, 0, 2}} {
		pr, err := chip.AddProc(compose.MustRect(rect[0], rect[1], rect[2]), p)
		if err != nil {
			t.Fatal(err)
		}
		pr.Regs[1] = 50
	}
	if err := chip.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if chip.FlightDump() != nil {
		t.Fatal("FlightDump must be nil while the recorder is disabled")
	}
	ds := chip.DomainStats()
	if len(ds) != 2 {
		t.Fatalf("DomainStats reported %d domains, want 2", len(ds))
	}
	for _, d := range ds {
		if d.Windows == 0 {
			t.Errorf("domain %d crossed no windows under the merged scheduler", d.Dom)
		}
		if d.Events == 0 {
			t.Errorf("domain %d counted no events", d.Dom)
		}
		if d.RingRecords != 0 {
			t.Errorf("domain %d reports %d ring records with the recorder disabled", d.Dom, d.RingRecords)
		}
	}
	// The two domains run the same program but finish at different
	// cycles relative to the shared window boundaries, so at least one
	// must have seen barrier slack.
	if ds[0].BarrierWait == 0 && ds[1].BarrierWait == 0 {
		t.Error("no barrier slack recorded across either domain")
	}
}

// TestMidRunComposeStartsAtWindowBoundary pins the recomposition
// latency every engine mode charges: a processor that an OnProcHalt hook
// composes mid-run begins fetching at the boundary closing the window
// the halt executed in.  The start cycle is read back from the KCompose
// record domain placement writes.  The chip forms one domain, or two
// with an unrelated processor running beside the halting one, under the
// serial and the parallel scheduler.
func TestMidRunComposeStartsAtWindowBoundary(t *testing.T) {
	for _, tc := range []struct {
		name    string
		domains int
		par     int
	}{
		{"one-domain", 1, 1},
		{"two-domains/par=1", 2, 1},
		{"two-domains/par=2", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.ParallelDomains = tc.par
			chip := New(opts)
			chip.EnableFlight(1 << 14)
			p := sumProgram(t)
			first, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
			if err != nil {
				t.Fatal(err)
			}
			first.Regs[1] = 50
			if tc.domains == 2 {
				other, err := chip.AddProc(compose.MustRect(2, 0, 2), p)
				if err != nil {
					t.Fatal(err)
				}
				other.Regs[1] = 200
			}
			var haltNow uint64
			var next *Proc
			var hookErr error
			chip.OnProcHalt(func(h *Proc) {
				if h != first {
					return
				}
				haltNow = chip.Now()
				next, hookErr = chip.AddProc(compose.MustRect(0, 0, 2), p)
			})
			if err := chip.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if hookErr != nil || next == nil {
				t.Fatalf("hook failed to compose a processor: %v", hookErr)
			}
			if got := len(chip.DomainStats()); got != tc.domains {
				t.Fatalf("chip formed %d domains, want %d", got, tc.domains)
			}
			want := (haltNow/domainWindow + 1) * domainWindow
			var starts []uint64
			for _, r := range chip.FlightDump().Records(flight.KCompose) {
				if r.Proc == int16(next.id) {
					starts = append(starts, r.Cycle)
				}
			}
			if len(starts) != 1 || starts[0] != want {
				t.Fatalf("processor composed at halt cycle %d started at %v, want [%d] (the next window boundary)", haltNow, starts, want)
			}
			if !next.halted || next.Stats.Cycles <= want {
				t.Fatalf("composed processor did not run after its start: halted=%t cycles=%d", next.halted, next.Stats.Cycles)
			}
		})
	}
}
