package sim

import (
	"sync"

	"github.com/clp-sim/tflex/internal/flight"
)

// The parallel window engine: one persistent worker goroutine per
// domain, a monitor (mutex + condvar) coordinating lockstep windows,
// and a quiescence arbiter serializing shared-resource access.
//
// Equivalence to runMerged (the ordering contract):
//
//   - Window schedule: the leader (last worker to quiesce) takes the
//     same nextWindow step as runMerged, so both modes see the same
//     window sequence, the same boundary work and the same
//     deferred-invalidation delivery cycles.
//   - Shared-state order: all shared L2/DRAM-side accesses park on the
//     arbiter, which grants strictly in (event cycle, domain ID) order
//     and only when every domain is quiescent (parked or finished with
//     the window).  A domain's park keys never decrease within a
//     window, so once a grant key is minimal it stays minimal — grants
//     replay exactly the order the merged loop executes those events
//     in.  Everything not behind the arbiter touches only domain-local
//     state, where relative order across domains is unobservable.
//   - Failure order: each domain stops at its first fault; the boundary
//     promotes the globally first fault (min event cycle, domain order)
//     — the same fault the merged loop stops at, because the merged
//     loop would reach that event before any later-keyed one.
//
// Wall-clock caveat only: with GOMAXPROCS=1 or ParallelDomains=1 the
// pool degenerates to serial execution with barrier overhead; results
// are bit-identical regardless.

// parRun is the monitor for one parallel Run.
type parRun struct {
	c  *Chip
	mu sync.Mutex
	// cond signals every state change: window opens, grants, slot
	// frees, finish.  Broadcast keeps the protocol simple; the waiter
	// counts are tiny (one per domain).
	cond *sync.Cond
	wg   sync.WaitGroup

	maxCycles uint64

	n       int    // live workers (== len(c.domains))
	running int    // workers executing window events right now
	arrived int    // workers done with the current window
	slots   int    // ParallelDomains cap on concurrent execution
	gen     uint64 // window generation; d.gen != gen means "not run yet"
	limit   uint64 // exclusive event-time limit of the current window

	parked    []*domain // quiescent shared-access requests, min-heap by key
	servicing *domain   // domain currently granted shared access
	finished  bool
}

// runParallel drives the worker pool to completion.  The caller's
// goroutine only assembles the pool and waits; all window scheduling is
// done by whichever worker quiesces last.
func (c *Chip) runParallel(maxCycles uint64) {
	pr := &parRun{c: c, maxCycles: maxCycles, slots: c.Opts.ParallelDomains}
	pr.cond = sync.NewCond(&pr.mu)
	c.par = pr
	pr.mu.Lock()
	for _, d := range c.domains {
		pr.bindWorker(d)
	}
	pr.openWindow()
	for !pr.finished {
		pr.cond.Wait()
	}
	pr.mu.Unlock()
	pr.wg.Wait()
	c.par = nil
	// Rebind ports to the meshes' own statistics and drain whatever the
	// error path left in the shadows (a no-op after a clean finish).
	c.drainShadows()
	for _, d := range c.domains {
		d.opn = c.Opn.NewPort(nil)
		d.ctl = c.Ctl.NewPort(nil)
	}
}

// bindWorker points a domain's ports at its shadow statistics and
// starts its worker.  Monitor held.
//
//lint:hot cold worker spawn at window-regroup time, not per-cycle work
func (pr *parRun) bindWorker(d *domain) {
	c := pr.c
	d.opn = c.Opn.NewPort(&d.opnStats)
	d.ctl = c.Ctl.NewPort(&d.ctlStats)
	d.gen = pr.gen
	d.spawned = true
	pr.n++
	pr.wg.Add(1)
	go pr.worker(d)
}

// worker runs one domain: execute each window when a slot frees, then
// quiesce and let tryAdvance decide what happens next.
func (pr *parRun) worker(d *domain) {
	defer pr.wg.Done()
	pr.mu.Lock()
	for {
		if pr.finished || d.retired {
			pr.mu.Unlock()
			return
		}
		if d.gen != pr.gen && pr.running < pr.slots {
			d.gen = pr.gen
			limit := pr.limit
			pr.running++
			pr.mu.Unlock()
			d.runWindow(limit)
			d.flight.Add(flight.KBarrierArrive, d.now, -1, -1, limit, 0)
			pr.mu.Lock()
			pr.running--
			pr.arrived++
			pr.cond.Broadcast() // a slot freed
			pr.tryAdvance()
			continue
		}
		pr.cond.Wait()
	}
}

// enter parks the calling domain until the arbiter grants it exclusive
// shared-resource access.  Called (through Proc.enterShared) from deep
// inside event dispatch, so the park key (d.now, d.id) is the executing
// event's key.  The handoff below IS the serialization mechanism the
// ownership rules assume, so domainguard does not descend into it.
//
//lint:owner quiescent
func (pr *parRun) enter(d *domain) {
	pr.mu.Lock()
	pr.running--
	d.granted = false
	pr.pushParked(d)
	pr.cond.Broadcast() // a slot freed
	pr.tryAdvance()
	for !d.granted {
		pr.cond.Wait()
	}
	pr.mu.Unlock()
	// The worker owns d again: count the grant and record it.  The grant
	// sequence replays the merged order, so the counter is deterministic.
	d.sharedGrants++
	d.flight.Add(flight.KSharedEnter, d.now, -1, -1, d.sharedGrants, 0)
}

// exit releases the arbiter after a shared section; the domain resumes
// its window.
//
//lint:owner quiescent
func (pr *parRun) exit(d *domain) {
	d.flight.Add(flight.KSharedExit, d.now, -1, -1, d.sharedGrants, 0)
	pr.mu.Lock()
	pr.servicing = nil
	pr.c.curDom = nil
	pr.running++
	pr.mu.Unlock()
}

// tryAdvance fires when a worker quiesces: once every live worker is
// parked or arrived it either grants the minimum-key parked request or,
// with nothing parked, runs the window boundary and opens the next
// window.  Monitor held.
func (pr *parRun) tryAdvance() {
	if pr.servicing != nil || pr.running > 0 {
		return
	}
	if pr.arrived+len(pr.parked) < pr.n {
		return // someone still owes this window work
	}
	if len(pr.parked) > 0 {
		d := pr.popParked()
		// Every other parked domain observes this grant while waiting —
		// the shared-section contention signal.  Deterministic: grants
		// happen only at full quiescence, where the parked set is a
		// function of the merged event order.  Writing under the monitor
		// is safe; the owners are blocked in enter's cond.Wait.
		for _, o := range pr.parked {
			o.sharedWait++
		}
		pr.servicing = d
		pr.c.curDom = d
		d.granted = true
		pr.cond.Broadcast()
		return
	}
	pr.openWindow()
}

// openWindow runs the boundary and opens the next window, or finishes
// the run.  Monitor held, every worker quiescent — the same nextWindow
// step runMerged takes between windows; domains formed at the boundary
// get their workers before the window opens.
func (pr *parRun) openWindow() {
	c := pr.c
	limit, ok := c.nextWindow(pr.limit, pr.maxCycles)
	if !ok {
		pr.finish()
		return
	}
	for _, d := range c.domains {
		if !d.spawned {
			pr.bindWorker(d)
		}
	}
	pr.n = len(c.domains) // merged-away domains retire
	pr.limit = limit
	pr.gen++
	pr.arrived = 0
	pr.cond.Broadcast()
}

func (pr *parRun) finish() {
	pr.finished = true
	pr.cond.Broadcast()
}

// pushParked files a quiescent request on the (now, id) min-heap.
func (pr *parRun) pushParked(d *domain) {
	pr.parked = append(pr.parked, d)
	h := pr.parked
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !parkedLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (pr *parRun) popParked() *domain {
	h := pr.parked
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	pr.parked = h[:n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && parkedLess(h[l], h[s]) {
			s = l
		}
		if r < n && parkedLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top
}

func parkedLess(a, b *domain) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.id < b.id
}
