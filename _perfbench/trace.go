package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/experiments"
)

// tracer records the per-layer numbers of the traced phase. It times
// the benchmark's own calls into the public API, arms each chip's
// telemetry registry and sums its counters; nothing inside the
// simulator is instrumented. Every method is a no-op on a nil tracer,
// which is how the untraced passes run.
type tracer struct {
	allocs, live []metrics.Sample

	chips                 int
	setup, run, check     time.Duration
	setupBytes, runBytes  uint64
	jobs                  []time.Duration // one per chip or runner job
	peakLive              uint64
	counts                map[string]float64 // summed registry counters, by counterSums key
	runnerJobs, storeHits int
	inJob, runnerWall     time.Duration
	workers               int
	render                time.Duration
	runnerTrace           *tflex.Trace // the suite runner's job spans
}

func newTracer() *tracer {
	return &tracer{
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		live:   []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		counts: map[string]float64{},
	}
}

// mark is a point on a chip's timeline: host time and heap bytes
// allocated so far.
type mark struct {
	at    time.Time
	bytes uint64
}

func (tr *tracer) mark() mark {
	if tr == nil {
		return mark{}
	}
	metrics.Read(tr.allocs)
	return mark{time.Now(), tr.allocs[0].Value.Uint64()}
}

// counterSums names the registry counters the per-layer metrics are
// built from: every entry whose name has the prefix and the suffix is
// summed (an empty suffix asks for the exact name).
var counterSums = []struct{ key, prefix, suffix string }{
	{"events", "domain", ".window.events"},
	{"windows", "domain", ".window.count"},
	{"barrier_wait", "domain", ".barrier.wait_total"},
	{"shared_grants", "domain", ".shared.grants"},
	{"shared_wait", "domain", ".shared.wait"},
	{"blocks_fetched", "proc", ".blocks.fetched"},
	{"blocks_flushed", "proc", ".blocks.flushed"},
	{"lsq_nacks", "proc", ".lsq.nacks"},
	{"pred_hits", "proc", ".pred.hits"},
	{"pred_mispredicts", "proc", ".pred.mispredicts"},
	{"l1d_accesses", "core", ".l1d.accesses"},
	{"l1d_misses", "core", ".l1d.misses"},
	{"opnd_messages", "noc.opnd.messages", ""},
	{"opnd_stall", "noc.opnd.stall_cycles", ""},
	{"ctl_messages", "noc.ctl.messages", ""},
	{"ctl_stall", "noc.ctl.stall_cycles", ""},
	{"l2_accesses", "l2.accesses", ""},
	{"l2_misses", "l2.misses", ""},
	{"dram_requests", "dram.requests", ""},
}

// count adds one chip's registry snapshot. Counters are integers below
// 2^53, so the float sums are exact in any order.
func (tr *tracer) count(snap tflex.MetricsSnapshot) {
	for name, v := range snap {
		for _, c := range counterSums {
			if c.suffix == "" && name == c.prefix ||
				c.suffix != "" && strings.HasPrefix(name, c.prefix) && strings.HasSuffix(name, c.suffix) {
				tr.counts[c.key] += v
			}
		}
	}
}

func (tr *tracer) sampleLive() {
	metrics.Read(tr.live)
	tr.peakLive = max(tr.peakLive, tr.live[0].Value.Uint64())
}

// chipDone records one chip: set-up (NewChip through AddProc and
// Init), Run, and the output checks, each with its host time and the
// heap bytes it allocated.
func (tr *tracer) chipDone(m0, m1, m2 mark, reg *tflex.Metrics) {
	if tr == nil {
		return
	}
	m3 := tr.mark()
	tr.chips++
	tr.setup += m1.at.Sub(m0.at)
	tr.run += m2.at.Sub(m1.at)
	tr.check += m3.at.Sub(m2.at)
	tr.setupBytes += m1.bytes - m0.bytes
	tr.runBytes += m2.bytes - m1.bytes
	tr.jobs = append(tr.jobs, m3.at.Sub(m0.at))
	tr.count(reg.Snapshot())
	tr.sampleLive()
}

// armSuite has the suite's runner record one span per job, from which
// suiteDone takes each job's wall time.
func (tr *tracer) armSuite(s *experiments.Suite) {
	if tr != nil {
		tr.runnerTrace = tflex.NewTrace()
		s.SetTrace(tr.runnerTrace)
	}
}

// suiteDone records one suite pass: the runner's summary, the time the
// experiments spent outside runner batches (rendering), and every job's
// registry snapshot.
func (tr *tracer) suiteDone(sum experiments.Summary, spans time.Duration, workers int, byJob map[string]tflex.MetricsSnapshot) error {
	if tr == nil {
		return nil
	}
	tr.runnerJobs += sum.JobsRun
	tr.storeHits += int(sum.CacheHits)
	tr.inJob += sum.CPUTime
	tr.runnerWall += sum.Wall
	tr.workers = workers
	tr.render += spans - sum.Wall
	for _, snap := range byJob {
		tr.count(snap)
	}
	tr.sampleLive()
	var buf bytes.Buffer
	if err := tr.runnerTrace.WriteJSON(&buf); err != nil {
		return err
	}
	var trace struct {
		TraceEvents []struct {
			Ph, Cat string
			Dur     int64 // microseconds
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		return fmt.Errorf("runner trace: %w", err)
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "job" {
			tr.jobs = append(tr.jobs, time.Duration(ev.Dur)*time.Microsecond)
		}
	}
	return nil
}

// runtimeCounters are the Go runtime's cumulative counters the traced
// phase reads at its start and end.
var runtimeCounters = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	out := map[string]float64{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// layerPackages maps the simulator's packages to the layer names of
// the *.host_share metrics.
var layerPackages = []string{"sim", "noc", "mem", "predictor", "exec", "critpath", "telemetry", "conv"}

const modulePath = "github.com/clp-sim/tflex/internal/"

// hostShares summarizes a CPU profile with the toolchain's pprof: the
// share of self CPU time spent in each layer's package, plus the share
// in the allocator (mallocgc and memclr).
func hostShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	self := map[string]float64{}
	var total, malloc float64
	inRows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "flat" {
			inRows = true
			continue
		}
		if !inRows || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		fn := f[5]
		total += ms
		self[packageOf(fn)] += ms
		if strings.HasPrefix(fn, "runtime.mallocgc") || strings.HasPrefix(fn, "runtime.memclr") {
			malloc += ms
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", profile)
	}
	shares := map[string]float64{"runtime.malloc_share": malloc / total}
	for _, l := range layerPackages {
		shares[l+".host_share"] = self[modulePath+l] / total
	}
	return shares, nil
}

// packageOf returns the import path of a profiled function's package:
// it ends at the first '.' after the last '/', once any type arguments
// (which may hold paths of their own) are cut off.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// percentile returns the p-quantile (0..1) of ds by the nearest-rank
// rule, which needs no interpolation between jobs.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*p+0.5) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// processCPU is the CPU time the process has used so far, user and
// system, summed over every thread.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB reads the process's peak resident set size (KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
