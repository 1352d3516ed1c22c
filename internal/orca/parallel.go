package orca

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// Parallel memo search. The serial optimizer of optimize.go recursed through
// memo.optimize with a per-(group, request) in-progress marker; here the
// same enumeration runs across a bounded goroutine pool:
//
//   - Each (group, request-key) pair resolves through a single-flight entry
//     table per group: the first goroutine to claim a key computes it, any
//     other goroutine that needs the result parks on the entry's done
//     channel. Claims are only ever computed inline by a live goroutine —
//     never queued — so a claim always makes progress.
//
//   - Deadlock freedom: every nested optimize call strictly decreases the
//     well-founded measure (group height in the memo DAG, then spec count,
//     then dist != Any) — the same argument that makes the serial recursion
//     terminate. A cross-goroutine wait therefore always points "down" the
//     measure and the waits-for graph is acyclic.
//
//   - Cycle pruning: the serial code marked a key in-progress and returned
//     invalidResult on re-entry (a cyclic alternative proposes itself as its
//     own subplan). Re-entry is a property of one recursion path, not of
//     the global search, so each goroutine carries its own path set; a
//     spawned task inherits a copy of its parent's path. This reproduces
//     the serial marker exactly: in depth-first serial execution the
//     in-progress keys are precisely the ancestors of the current call.
//
//   - Determinism: candidates are enumerated in the exact serial order and
//     collected into per-source slots; the winner is the first strict
//     cost-minimum in that order, regardless of which goroutine computed
//     which slot (see compute in optimize.go). Combined with memoized
//     sub-results being pure functions of the memo, the chosen plan is
//     bit-identical to the workers=1 plan for any worker count.
//
//   - Throughput: a semaphore holds one token per permitted running
//     goroutine. Fan-out spawns a task only when a token is free (inline
//     otherwise), and a goroutine releases its token around any blocking
//     wait (single-flight parks, child joins) so parked searchers never
//     starve the pool.

// OptStats reports one Optimize call's search effort. The engine surfaces
// it in EXPLAIN ANALYZE ("optimization: N workers, M groups, T ms") and the
// obs registry.
type OptStats struct {
	Workers int   // effective pool size (1 = serial)
	Groups  int   // memo groups created, enumeration included
	Entries int   // (group, request) results computed
	Tasks   int64 // parallel tasks spawned (0 when serial)
	Nanos   int64 // wall time of the whole Optimize call
}

// entry is the single-flight cell of one (group, request-key) pair: res is
// written exactly once, before done closes.
type entry struct {
	done chan struct{}
	res  *result
}

// worker is one goroutine's view of the search: the shared memo plus the
// private recursion path used for cyclic-alternative pruning.
type worker struct {
	*memo
	path map[string]bool // keys on this goroutine's recursion path
}

func (m *memo) newWorker() *worker {
	return &worker{memo: m, path: map[string]bool{}}
}

// fork clones the worker for a spawned task: same memo, copied path (the
// task logically continues the parent's recursion).
func (w *worker) fork() *worker {
	path := make(map[string]bool, len(w.path))
	for k := range w.path {
		path[k] = true
	}
	return &worker{memo: w.memo, path: path}
}

// acquireToken blocks until the worker may run; releaseToken hands the slot
// back. Every running goroutine of a parallel search holds exactly one
// token; both are no-ops in serial mode.
func (m *memo) acquireToken() {
	if m.sem != nil {
		m.sem <- struct{}{}
	}
}

func (m *memo) releaseToken() {
	if m.sem != nil {
		<-m.sem
	}
}

// optimize resolves one (group, request) pair through the single-flight
// table: the first claimant computes, everyone else waits. This is the
// concurrent replacement for the serial "g.best[key] = nil" protocol.
func (w *worker) optimize(g *group, req request) *result {
	key := req.key()
	pathKey := strconv.Itoa(g.id) + "\x00" + key
	if w.path[pathKey] {
		// Cyclic alternative on this goroutine's own recursion path: the
		// candidate proposes the group it is computing as its own subplan.
		return invalidResult
	}

	g.mu.Lock()
	if e, ok := g.tab[key]; ok {
		g.mu.Unlock()
		select {
		case <-e.done:
		default:
			// Another goroutine is computing this key. Park without a
			// token so the pool stays busy.
			w.releaseToken()
			<-e.done
			w.acquireToken()
		}
		return e.res
	}
	e := &entry{done: make(chan struct{})}
	g.tab[key] = e
	g.mu.Unlock()

	w.path[pathKey] = true
	res := w.compute(g, req)
	delete(w.path, pathKey)

	w.entries.Add(1)
	e.res = res
	close(e.done)
	return res
}

// candidateSource produces one slot of a group's candidate list: a slice of
// results in deterministic enumeration order.
type candidateSource func(*worker) []*result

// runSources evaluates every source and returns the per-source result
// slices, order-preserving. Serial mode (or a single source) runs inline;
// parallel mode spawns a task per remaining source while a token is free
// and computes the rest inline on this worker.
func (w *worker) runSources(sources []candidateSource) [][]*result {
	slots := make([][]*result, len(sources))
	if w.sem == nil || len(sources) <= 1 {
		for i, s := range sources {
			slots[i] = s(w)
		}
		return slots
	}
	var wg sync.WaitGroup
	for i, s := range sources {
		if i == len(sources)-1 {
			// Always keep the final source on this goroutine: the parent
			// works instead of idling while its children run.
			slots[i] = s(w)
			break
		}
		select {
		case w.sem <- struct{}{}:
			w.tasks.Add(1)
			wg.Add(1)
			go func(i int, s candidateSource, cw *worker) {
				defer func() {
					w.releaseToken()
					wg.Done()
				}()
				slots[i] = s(cw)
			}(i, s, w.fork())
		default:
			slots[i] = s(w)
		}
	}
	// Join without a token: the children hold theirs.
	w.releaseToken()
	wg.Wait()
	w.acquireToken()
	return slots
}

// pickBest replays the serial winner rule over the slot matrix: the first
// strict cost-minimum in enumeration order wins, making the chosen plan
// independent of goroutine scheduling.
func pickBest(slots [][]*result) *result {
	best := invalidResult
	for _, rs := range slots {
		for _, r := range rs {
			if r != nil && r.valid && (!best.valid || r.cost < best.cost) {
				best = r
			}
		}
	}
	return best
}

// search is the root entry of one optimization request: it runs the request
// on a fresh root worker holding a pool token.
func (m *memo) search(g *group, req request) *result {
	m.acquireToken()
	defer m.releaseToken()
	return m.newWorker().optimize(g, req)
}

// optimize keeps the serial signature used by Optimize, optimizeDML and
// the unit tests: a full search rooted at (g, req).
func (m *memo) optimize(g *group, req request) *result {
	return m.search(g, req)
}

// searchCounters is the shared, atomically-updated portion of the memo's
// search state.
type searchCounters struct {
	entries atomic.Int64
	tasks   atomic.Int64
}
