package sim

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/noc"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Event domains: the partitioned cycle engine.
//
// The optimized engine splits the chip's work into *domains*, each
// owning a bucketed calendar queue, a private (cycle, insertion-seq)
// sequence space, per-domain NoC ports and a deferred-coherence inbox.
// A domain is the unit of concurrency: all state a domain's events touch
// — its processors' windows, LSQ banks, L1s, issue rings and the mesh
// links inside its routing closure — is reachable from no other domain,
// so domains advance independently inside lockstep windows of W cycles
// ([kW, (k+1)W), W = domainWindow) and synchronize at every boundary.
// Every chip runs in windows, however many domains it forms: on the
// caller's goroutine (runMerged) or on a worker pool (runParallel).  The
// only state domains share is the L2/DRAM side; every access to it is
// serialized in the global merged event order (at, domainID, seq) —
// inline on one goroutine, through the window arbiter (parallel.go) on
// many — so results are bit-identical for every ParallelDomains setting
// and GOMAXPROCS.
//
// Domain formation.  Processors are grouped by the closure of two
// relations: sharing an architectural memory (AddProcShared — directory
// traffic on shared lines must stay inside one domain) and overlapping
// routing bounding boxes (XY routes never leave the bounding box of
// their endpoints, so disjoint boxes touch disjoint mesh links).  The
// grouping runs only at quiescent points — Run entry and window
// boundaries — and processors composed mid-run begin fetching at the
// boundary that places them, modeling a (≤ W cycle) recomposition
// latency.  Domains whose boxes an arriving processor bridges are
// merged at the same quiescent point.
//
// Cross-domain coherence.  Address-space tagging (physAddr) makes every
// same-line directory operation intra-domain; the single cross-domain
// channel is the L2 eviction path invalidating a victim's L1 line in
// another domain.  Those invalidations are deferred into the target
// domain's inbox and applied at the next window boundary — an
// invalidate message spending up to W cycles crossing the chip.  The
// deferral is identical in every mode, so it never breaks mode parity.

// domainWindow is the lockstep window width W in cycles, a model
// parameter: deferred cross-domain coherence traffic (L2 eviction
// invalidations) and processors composed mid-run both wait for the next
// boundary.  16 cycles approximates the banked-L2 round trip an
// invalidate needs to reach a remote core (L2 hit latency spans 5..27
// cycles).
const domainWindow = 16

// stallEvents is the stall-watchdog budget: the number of events one
// domain may execute inside one window before the run fails with a
// diagnostic instead of hanging.  It counts events, not wall time, so a
// trip is deterministic like everything else in the engine, and sits
// orders of magnitude above what any legal window executes.
const stallEvents = 1 << 20

// domain is one event partition.
type domain struct {
	id   int
	chip *Chip

	cal calQueue //lint:owner domain
	seq uint64   //lint:owner domain
	now uint64   //lint:owner domain

	procs []*Proc
	mems  []*exec.PageMem // identity set for memory-sharing grouping

	// Routing-closure bounding box, inclusive; x0 == -1 when empty.
	x0, y0, x1, y1 int

	// Per-domain mesh ports.  They point at the mesh's own statistics
	// when domains share one goroutine and at the shadow structs below
	// during parallel runs (drained at each boundary).
	opn, ctl           *noc.Port
	opnStats, ctlStats noc.Stats //lint:owner domain

	// inbox holds deferred cross-domain L1 invalidations in global
	// defer-sequence order (appends happen in arbiter order).
	inbox []inval //lint:owner domain

	err   error
	errAt uint64

	// Parallel-run bookkeeping (owned by parRun under its monitor).
	gen     uint64
	granted bool
	retired bool
	spawned bool

	// flight is the domain's flight-recorder ring; nil unless
	// Chip.EnableFlight armed the recorder, so the disabled cost is the
	// nil check inside flight.Ring.Add.  Single-writer: the goroutine
	// advancing the domain, or the boundary/leader goroutine while
	// every worker is quiescent.
	flight *flight.Ring //lint:owner domain

	// Scheduler observability counters, always on in the style of
	// Stats (plain increments, no pointers).  All are derived from the
	// merged event order — never wall time — so they are deterministic
	// at any ParallelDomains/GOMAXPROCS; sharedGrants/sharedWait stay
	// zero outside the parallel scheduler, where no arbiter runs.
	// mergeDomains folds the absorbed domain's counters into the
	// survivor.
	windows      uint64 // lockstep windows completed (boundary-counted)
	events       uint64 // events executed
	winEvents    uint64 // events executed in the current window
	barrierWait  uint64 // cumulative end-of-window slack cycles (≤ W each)
	sharedGrants uint64 // shared L2/DRAM sections granted by the arbiter
	sharedWait   uint64 // grants to other domains observed while parked
	invalsSeen   uint64 // deferred cross-domain invals delivered

	hBarrier *telemetry.Histogram // domain<d>.barrier.wait_cycles; nil-safe
}

// inval is one deferred L1 invalidation.
type inval struct {
	seq  uint64 // global defer sequence, for deterministic merges
	core int
	addr uint64
}

// scheduleEv enqueues a typed event in this domain, stamping time
// (clamped to the domain's now) and the domain-local insertion sequence.
func (d *domain) scheduleEv(at uint64, e event) {
	if at < d.now {
		at = d.now
	}
	d.seq++
	e.at = at
	e.seq = d.seq
	d.cal.push(e)
}

// fail records the domain's first model fault; the engine stops at the
// next synchronization point and reports the globally first fault.
//
//lint:hot cold fault path, runs at most once per simulation
func (d *domain) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: "+format, args...)
		d.errAt = d.now
	}
}

// runWindow is the per-worker body of a parallel window: it executes
// this domain's events below limit.  It never touches another domain's
// state; shared-resource accesses inside dispatched events park on the
// window arbiter.
//
//lint:owner worker
func (d *domain) runWindow(limit uint64) { //lint:hot root
	d.openWindow(limit)
	d.runTo(limit)
	d.closeWindow(limit)
}

// openWindow and closeWindow bracket one lockstep window of the domain:
// its event count and the window's flight records.
func (d *domain) openWindow(limit uint64) {
	d.winEvents = 0
	d.flight.Add(flight.KWindowOpen, d.now, -1, -1, limit, 0)
}

func (d *domain) closeWindow(limit uint64) {
	d.events += d.winEvents
	d.flight.Add(flight.KWindowClose, d.now, -1, -1, limit, d.winEvents)
}

// runTo executes this domain's events with at < bound in (at, seq)
// order, stopping early at the domain's first fault or a watchdog trip.
func (d *domain) runTo(bound uint64) {
	for d.err == nil {
		e, ok := d.cal.popBefore(bound)
		if !ok {
			return
		}
		d.now = e.at
		d.winEvents++
		if d.winEvents >= stallEvents {
			d.stall(bound)
			return
		}
		d.chip.dispatch(&e, e.at)
	}
}

// stall fails the run with the watchdog diagnostic: the domain executed
// stallEvents events without its window closing.  The engine stops at
// the next synchronization point instead of hanging; the flight rings
// (when armed) keep the event history leading up to the stall, and
// Chip.Run writes a post-mortem text dump to the flight sink on the way
// out.
func (d *domain) stall(bound uint64) {
	d.flight.Add(flight.KStall, d.now, -1, -1, bound, d.winEvents)
	d.fail("stall watchdog: domain %d executed %d events without advancing past cycle %d (limit %d events; flight rings dumped)",
		d.id, d.winEvents, d.now, uint64(stallEvents))
}

// emptyBox is the bounding-box sentinel for a domain with no cores.
func (d *domain) boxEmpty() bool { return d.x0 < 0 }

func (d *domain) growBox(x0, y0, x1, y1 int) {
	if d.boxEmpty() {
		d.x0, d.y0, d.x1, d.y1 = x0, y0, x1, y1
		return
	}
	if x0 < d.x0 {
		d.x0 = x0
	}
	if y0 < d.y0 {
		d.y0 = y0
	}
	if x1 > d.x1 {
		d.x1 = x1
	}
	if y1 > d.y1 {
		d.y1 = y1
	}
}

func (d *domain) overlapsBox(x0, y0, x1, y1 int) bool {
	if d.boxEmpty() {
		return false
	}
	return x0 <= d.x1 && d.x0 <= x1 && y0 <= d.y1 && d.y0 <= y1
}

func (d *domain) ownsMem(m *exec.PageMem) bool {
	for _, mm := range d.mems {
		if mm == m {
			return true
		}
	}
	return false
}

// applyInbox applies deferred cross-domain invalidations.  Runs only at
// window boundaries with every domain quiescent.  The dirty bit and
// distance feedback are discarded exactly as the immediate eviction
// path discards them (mem/l2.go fill), so deferral shifts only the
// victim's hit/miss timing by at most W cycles.
func (d *domain) applyInbox() {
	c := d.chip
	for i := range d.inbox {
		msg := &d.inbox[i]
		d.invalsSeen++
		d.flight.Add(flight.KInval, d.now, -1, int16(msg.core), msg.addr, msg.seq)
		if cache := c.l1d[msg.core]; cache != nil {
			if found, _ := cache.Invalidate(msg.addr); found {
				c.L2.Stats.Invals++
			}
		}
	}
	d.inbox = d.inbox[:0]
}

// stats snapshots the domain's scheduler observability counters.  Call
// from a quiescent point (boundary, post-run) like every other
// cross-domain read.
func (d *domain) stats() flight.DomainStats {
	cores := 0
	for _, p := range d.procs {
		cores += len(p.cores)
	}
	return flight.DomainStats{
		Dom:          d.id,
		Procs:        len(d.procs),
		Cores:        cores,
		Now:          d.now,
		Windows:      d.windows,
		Events:       d.events,
		BarrierWait:  d.barrierWait,
		SharedGrants: d.sharedGrants,
		SharedWait:   d.sharedWait,
		Invals:       d.invalsSeen,
		InboxDepth:   len(d.inbox),
		RingRecords:  d.flight.Written(),
	}
}

// register installs the domain's telemetry views: window occupancy,
// barrier-wait histogram, shared-section arbiter counters and inbox
// depth.  A domain merged away keeps its entries with the counters
// folded into (and future activity accounted to) the surviving domain.
func (d *domain) register(r *telemetry.Registry) {
	prefix := fmt.Sprintf("domain%d", d.id)
	r.CounterView(prefix+".window.count", &d.windows)
	r.CounterView(prefix+".window.events", &d.events)
	r.CounterView(prefix+".barrier.wait_total", &d.barrierWait)
	r.CounterView(prefix+".shared.grants", &d.sharedGrants)
	r.CounterView(prefix+".shared.wait", &d.sharedWait)
	r.CounterView(prefix+".inval.delivered", &d.invalsSeen)
	r.Gauge(prefix+".inbox.depth", func() float64 { return float64(len(d.inbox)) })
	r.Gauge(prefix+".window.occupancy", func() float64 {
		if d.windows == 0 {
			return 0
		}
		return float64(d.events) / float64(d.windows)
	})
	d.hBarrier = r.Histogram(prefix + ".barrier.wait_cycles")
}

// bboxOfCores returns the inclusive mesh bounding box of a core set.
func (c *Chip) bboxOfCores(cores []int) (x0, y0, x1, y1 int) {
	x0, y0 = c.Opn.XY(cores[0])
	x1, y1 = x0, y0
	for _, core := range cores[1:] {
		x, y := c.Opn.XY(core)
		if x < x0 {
			x0 = x
		}
		if y < y0 {
			y0 = y
		}
		if x > x1 {
			x1 = x
		}
		if y > y1 {
			y1 = y
		}
	}
	return
}

// newDomain appends a fresh, empty domain, arming its flight ring and
// telemetry views when the chip has them.
func (c *Chip) newDomain() *domain {
	d := &domain{id: c.nextDomainID, chip: c, x0: -1}
	c.nextDomainID++
	d.opn = c.Opn.NewPort(nil)
	d.ctl = c.Ctl.NewPort(nil)
	if c.flightRec != nil {
		d.flight = c.flightRec.NewRing(d.id)
	}
	if c.tel != nil {
		d.register(c.tel)
	}
	c.domains = append(c.domains, d)
	return d
}

// placePending assigns every processor composed since the last quiescent
// point to a domain (forming, joining or merging domains as its
// footprint requires) and schedules its first fetch no earlier than
// startAt.  Must run at a quiescent point.
func (c *Chip) placePending(startAt uint64) {
	for len(c.pendingProcs) > 0 {
		p := c.pendingProcs[0]
		c.pendingProcs = c.pendingProcs[1:]
		c.placeProc(p, startAt)
	}
}

//lint:hot cold composition event, not per-cycle work
func (c *Chip) placeProc(p *Proc, startAt uint64) {
	x0, y0, x1, y1 := c.bboxOfCores(p.cores)
	var matches []*domain
	for _, d := range c.domains {
		if d.overlapsBox(x0, y0, x1, y1) || d.ownsMem(p.Mem) {
			matches = append(matches, d)
		}
	}
	var into *domain
	if len(matches) == 0 {
		into = c.newDomain()
	} else {
		into = matches[0]
		for _, d := range matches[1:] {
			c.mergeDomains(into, d)
		}
	}
	into.adopt(p, x0, y0, x1, y1, startAt)
}

// adopt attaches a processor to the domain and seeds its fetch engine.
//
//lint:hot cold composition event, not per-cycle work
func (d *domain) adopt(p *Proc, x0, y0, x1, y1 int, startAt uint64) {
	p.dom = d
	p.fr = d.flight
	d.flight.Add(flight.KCompose, startAt, int16(p.id), int16(p.cores[0]), uint64(p.id), uint64(len(p.cores)))
	d.procs = append(d.procs, p)
	if !d.ownsMem(p.Mem) {
		d.mems = append(d.mems, p.Mem)
	}
	d.growBox(x0, y0, x1, y1)
	for _, core := range p.cores {
		d.chip.coreDom[core] = d
	}
	if p.fetch.readyAt < startAt {
		p.fetch.readyAt = startAt
	}
	p.maybeFetch()
}

// mergeDomains folds b into a (a.id < b.id, both quiescent): b's queued
// events re-file into a's sequence space in (at, seq) order, clamped to
// the merged now — the deterministic definition of a bridge merge, the
// same in every mode.
//
//lint:hot cold composition event, not per-cycle work
func (c *Chip) mergeDomains(a, b *domain) {
	if b.now > a.now {
		a.now = b.now
	}
	for !b.cal.empty() {
		e := b.cal.popMin()
		a.scheduleEv(e.at, e)
	}
	a.flight.Add(flight.KCompose, a.now, -1, -1, uint64(a.id), uint64(b.id))
	for _, p := range b.procs {
		p.dom = a
		p.fr = a.flight
		a.procs = append(a.procs, p)
	}
	// Fold the absorbed domain's scheduler counters into the survivor so
	// chip-wide totals are conserved across merges.
	a.events += b.events
	a.windows += b.windows
	a.barrierWait += b.barrierWait
	a.sharedGrants += b.sharedGrants
	a.sharedWait += b.sharedWait
	a.invalsSeen += b.invalsSeen
	b.events, b.windows, b.barrierWait = 0, 0, 0
	b.sharedGrants, b.sharedWait, b.invalsSeen = 0, 0, 0
	for _, m := range b.mems {
		if !a.ownsMem(m) {
			a.mems = append(a.mems, m)
		}
	}
	if !b.boxEmpty() {
		a.growBox(b.x0, b.y0, b.x1, b.y1)
	}
	// Merge the inboxes by global defer sequence (each is ascending).
	if len(b.inbox) > 0 {
		merged := make([]inval, 0, len(a.inbox)+len(b.inbox))
		i, j := 0, 0
		for i < len(a.inbox) && j < len(b.inbox) {
			if a.inbox[i].seq < b.inbox[j].seq {
				merged = append(merged, a.inbox[i])
				i++
			} else {
				merged = append(merged, b.inbox[j])
				j++
			}
		}
		merged = append(merged, a.inbox[i:]...)
		merged = append(merged, b.inbox[j:]...)
		a.inbox = merged
	}
	if b.err != nil && a.err == nil {
		a.err, a.errAt = b.err, b.errAt
	}
	// Shadow statistics drain straight to the meshes (sums commute).
	c.Opn.FoldStats(&b.opnStats)
	c.Ctl.FoldStats(&b.ctlStats)
	for i := range c.coreDom {
		if c.coreDom[i] == b {
			c.coreDom[i] = a
		}
	}
	b.retired = true
	for i, d := range c.domains {
		if d == b {
			c.domains = append(c.domains[:i], c.domains[i+1:]...)
			break
		}
	}
}

// minNextAt returns the earliest pending event cycle across domains.
func (c *Chip) minNextAt() (uint64, bool) {
	var m uint64
	ok := false
	for _, d := range c.domains {
		if at, k := d.cal.nextAt(); k && (!ok || at < m) {
			m, ok = at, true
		}
	}
	return m, ok
}

// collectErrors promotes the globally first domain fault (min errAt,
// domain order breaking ties) to the chip.
func (c *Chip) collectErrors() {
	if c.err != nil {
		return
	}
	var best *domain
	for _, d := range c.domains {
		if d.err != nil && (best == nil || d.errAt < best.errAt) {
			best = d
		}
	}
	if best != nil {
		c.err = best.err
	}
}

// syncNow advances the chip clock to the furthest domain.
func (c *Chip) syncNow() {
	for _, d := range c.domains {
		if d.now > c.now {
			c.now = d.now
		}
	}
}

// drainShadows folds every domain's shadow NoC statistics into the
// meshes, in domain order.  A no-op for direct-bound ports (the shadow
// structs stay zero).
func (c *Chip) drainShadows() {
	for _, d := range c.domains {
		c.Opn.FoldStats(&d.opnStats)
		c.Ctl.FoldStats(&d.ctlStats)
	}
}

// windowBoundary runs the between-window work with every domain
// quiescent: deferred invalidations apply in domain order, shadow NoC
// statistics drain, and processors composed during the window are
// placed and begin fetching at the boundary cycle.  Identical in merged
// and parallel modes — mode parity depends on it.
func (c *Chip) windowBoundary(boundaryCycle uint64) {
	for _, d := range c.domains {
		// Barrier accounting: the end-of-window slack (cycles between the
		// domain's last executed event and the boundary, clamped to the
		// window width) — the simulated-time analogue of barrier wait,
		// identical in merged and parallel modes.
		d.windows++
		slack := uint64(0)
		if d.now < boundaryCycle {
			slack = boundaryCycle - d.now
			if slack > domainWindow {
				slack = domainWindow
			}
		}
		d.barrierWait += slack
		d.hBarrier.Observe(slack)
		d.flight.Add(flight.KBarrierRelease, boundaryCycle, -1, -1, boundaryCycle, slack)
		d.applyInbox()
	}
	c.drainShadows()
	if len(c.pendingProcs) > 0 {
		c.placePending(boundaryCycle)
	}
}

// windowLimitFor returns the exclusive event-time limit of the window
// containing cycle m: the next multiple of W above m, capped so no
// event beyond maxCycles ever executes (keeping the exceeded-cycles
// state identical across modes).
func windowLimitFor(m, maxCycles uint64) uint64 {
	limit := (m/domainWindow + 1) * domainWindow
	if maxCycles != ^uint64(0) && limit > maxCycles+1 {
		limit = maxCycles + 1
	}
	return limit
}

// nextWindow is the step between lockstep windows, shared by the serial
// and parallel loops so both see the same window sequence — mode parity
// lives here.  With every domain quiescent it promotes the globally
// first fault, runs the boundary of the window that closed at prev (0
// before the first window), takes the samples due before the next event
// and returns the exclusive limit of the next window.  ok is false when
// the run is over: a fault, every queue drained, or the cycle limit
// exceeded (c.err says which).
func (c *Chip) nextWindow(prev, maxCycles uint64) (limit uint64, ok bool) {
	c.syncNow()
	c.collectErrors()
	if c.err != nil {
		return 0, false
	}
	if prev > 0 {
		c.windowBoundary(prev)
	}
	m, ok := c.minNextAt()
	if !ok {
		c.takeSamples(c.now)
		return 0, false
	}
	c.takeSamples(m)
	if m > maxCycles {
		c.err = c.exceededErr(maxCycles)
		return 0, false
	}
	return windowLimitFor(m, maxCycles), true
}

//lint:hot cold run-termination error construction
func (c *Chip) exceededErr(maxCycles uint64) error {
	return fmt.Errorf("sim: exceeded %d cycles (running: %s)", maxCycles, c.runningProcs())
}

// runMerged advances every domain on the caller's goroutine, window by
// window, in the merged (at, domainID, seq) order — the ordering
// contract the parallel arbiter reproduces.  A chip that forms one
// domain runs here too: each of its windows is a single nextRun.
//
//lint:hot root
func (c *Chip) runMerged(maxCycles uint64) {
	for limit, ok := c.nextWindow(0, maxCycles); ok; limit, ok = c.nextWindow(limit, maxCycles) {
		for _, d := range c.domains {
			d.openWindow(limit)
		}
		for d, bound := c.nextRun(limit); d != nil; d, bound = c.nextRun(limit) {
			c.curDom = d
			d.runTo(bound)
		}
		c.curDom = nil
		for _, d := range c.domains {
			d.closeWindow(limit)
		}
	}
}

// nextRun picks the domain whose earliest event below limit comes first
// in the merged (at, domainID, seq) order, and the bound up to which it
// may run alone: domains interact only through the shared L2/DRAM side,
// which that order serializes, so the chosen domain executes every event
// until another domain's head takes precedence (ties go to the lower
// domain ID).  It returns nil when no event is due before limit or a
// domain has faulted.
func (c *Chip) nextRun(limit uint64) (*domain, uint64) {
	var best *domain
	var bat uint64
	for _, d := range c.domains {
		if d.err != nil {
			return nil, 0
		}
		if at, ok := d.cal.nextAt(); ok && at < limit && (best == nil || at < bat) {
			best, bat = d, at
		}
	}
	if best == nil {
		return nil, 0
	}
	bound := limit
	for _, d := range c.domains {
		at, ok := d.cal.nextAt()
		if !ok || d == best {
			continue
		}
		if d.id > best.id {
			at++
		}
		bound = min(bound, at)
	}
	return best, bound
}

// runOptimized is the domain-engine driver: it forms domains from the
// composed processors and runs them in lockstep windows to completion —
// on the worker pool when ParallelDomains > 1 and the chip forms more
// than one domain, on the caller's goroutine otherwise.
func (c *Chip) runOptimized(maxCycles uint64) error {
	c.placePending(c.now)
	if c.Opts.ParallelDomains > 1 && len(c.domains) > 1 {
		c.runParallel(maxCycles)
	} else {
		c.runMerged(maxCycles)
	}
	return c.finishRun()
}
