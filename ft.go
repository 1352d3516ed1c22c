package partopt

import (
	"fmt"
	"time"

	"partopt/internal/exec"
	"partopt/internal/fts"
	"partopt/internal/storage"
)

// This file is the engine's fault tolerance surface: enabling mirrored
// segments plus the FTS health service, the chaos-drill controls that kill
// and revive segments, and the health introspection the server front end
// (/statz, mppd doctor) and mppsim's \segments render.

// Compile-time wiring proof: the storage layer is a cluster the FTS can
// manage, and the FTS is a failure reporter the executor can feed.
var (
	_ fts.Cluster          = (*storage.Store)(nil)
	_ exec.FailureReporter = (*fts.Service)(nil)
)

// FTConfig tunes fault tolerance at enable time.
type FTConfig struct {
	// ProbeInterval is the background health-probe period; <= 0 disables
	// the probe loop, leaving only evidence-driven detection (useful in
	// tests that step the machine deterministically).
	ProbeInterval time.Duration
	// DownAfter is how many consecutive probe failures declare a segment
	// down (default 2).
	DownAfter int
}

// DefaultFTConfig probes every 50ms and declares down after 2 misses.
func DefaultFTConfig() FTConfig {
	d := fts.DefaultConfig()
	return FTConfig{ProbeInterval: d.ProbeInterval, DownAfter: d.DownAfter}
}

// EnableFaultTolerance turns the engine into a mirrored cluster: every
// segment gets a synchronously-applied mirror replica (cloned from the
// current contents), a fault tolerance service starts watching segment
// health, and the executor begins reporting segment-death evidence to it.
// If no RetryPolicy was set, a one-retry policy is installed so read-only
// queries transparently recover across a failover; a policy set earlier,
// even a one-attempt one, is kept. Idempotent after the first call.
func (e *Engine) EnableFaultTolerance(cfg FTConfig) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fts != nil {
		return
	}
	e.store.EnableMirrors()
	svc := fts.New(e.store, fts.Config{ProbeInterval: cfg.ProbeInterval, DownAfter: cfg.DownAfter}, e.rt.Obs)
	e.fts = svc
	e.rt.FTS = svc
	if e.rt.Retry.MaxAttempts == 0 {
		e.rt.Retry = exec.RetryPolicy{MaxAttempts: 2, Backoff: 2 * time.Millisecond}
	}
	svc.Start()
}

// FaultTolerant reports whether EnableFaultTolerance has run.
func (e *Engine) FaultTolerant() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.fts != nil
}

// StopFTS halts the background probe loop (evidence-driven detection keeps
// working). Safe to call repeatedly or without fault tolerance enabled.
func (e *Engine) StopFTS() {
	e.mu.RLock()
	svc := e.fts
	e.mu.RUnlock()
	if svc != nil {
		svc.Stop()
	}
}

// SetRetryPolicy bounds coordinator-side re-execution of read-only queries
// that fail transiently. It is honored identically on the embedded path and
// the mppd server path — both run through the same executor retry loop.
func (e *Engine) SetRetryPolicy(maxAttempts int, backoff time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rt.Retry = exec.RetryPolicy{MaxAttempts: maxAttempts, Backoff: backoff}
}

// RetryPolicy reports the configured (maxAttempts, backoff).
func (e *Engine) RetryPolicy() (int, time.Duration) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rt.Retry.MaxAttempts, e.rt.Retry.Backoff
}

// KillSegment kills segment seg's acting primary replica — the chaos
// drill's hammer. Detection and failover are left to the FTS (probe loop
// or query evidence), exactly as if the segment process died.
func (e *Engine) KillSegment(seg int) error {
	if seg < 0 || seg >= e.segments {
		return fmt.Errorf("partopt: segment %d out of range", seg)
	}
	return e.store.KillReplica(seg, e.store.Primary(seg))
}

// ReviveSegment brings segment seg's dead replicas back: the storage layer
// resyncs each from the surviving replica and the FTS walks them through
// recovered back to up.
func (e *Engine) ReviveSegment(seg int) error {
	if seg < 0 || seg >= e.segments {
		return fmt.Errorf("partopt: segment %d out of range", seg)
	}
	e.mu.RLock()
	svc := e.fts
	e.mu.RUnlock()
	for rep := 0; rep < storage.NumReplicas; rep++ {
		if e.store.ReplicaAlive(seg, rep) {
			continue
		}
		if err := e.store.ReviveReplica(seg, rep); err != nil {
			return err
		}
		if svc != nil {
			svc.NoteRecovered(seg, rep)
		}
	}
	return nil
}

// SetFTSDraining flips the FTS drain mode: while draining, probe-driven
// failovers are suppressed (a slow shutdown must not look like mass
// segment death) but evidence-driven recovery for in-flight queries stays
// armed. The server front end calls this as it begins a graceful drain.
func (e *Engine) SetFTSDraining(v bool) {
	e.mu.RLock()
	svc := e.fts
	e.mu.RUnlock()
	if svc != nil {
		svc.SetDraining(v)
	}
}

// ReplicaStatus is one physical replica's health, render-ready.
type ReplicaStatus struct {
	State       string `json:"state"` // up | suspect | down | recovered
	Primary     bool   `json:"primary"`
	ConsecFails int    `json:"consec_fails,omitempty"`
}

// SegmentStatus is one logical segment's health.
type SegmentStatus struct {
	Seg      int                                `json:"seg"`
	Primary  int                                `json:"primary"`
	Replicas [storage.NumReplicas]ReplicaStatus `json:"replicas"`
}

// SegmentHealth snapshots every segment's health. ok is false when fault
// tolerance is not enabled (there is no health to report).
func (e *Engine) SegmentHealth() ([]SegmentStatus, bool) {
	e.mu.RLock()
	svc := e.fts
	e.mu.RUnlock()
	if svc == nil {
		return nil, false
	}
	snap := svc.Snapshot()
	out := make([]SegmentStatus, len(snap))
	for i, sh := range snap {
		st := SegmentStatus{Seg: sh.Seg, Primary: sh.Primary}
		for r, rh := range sh.Replicas {
			st.Replicas[r] = ReplicaStatus{
				State:       rh.State.String(),
				Primary:     rh.ActingAsPrim,
				ConsecFails: rh.ConsecFails,
			}
		}
		out[i] = st
	}
	return out, true
}

// SegmentFailovers reports how many mirror failovers the FTS has executed.
func (e *Engine) SegmentFailovers() int64 {
	e.mu.RLock()
	svc := e.fts
	e.mu.RUnlock()
	if svc == nil {
		return 0
	}
	return svc.Failovers()
}
