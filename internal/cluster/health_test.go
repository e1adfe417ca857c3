package cluster

import (
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := breaker{threshold: 3, cooldown: time.Second}

	if !b.admit(t0) {
		t.Fatal("closed breaker must admit")
	}
	b.failure(t0)
	b.failure(t0)
	if state, fails, trips := b.snapshot(t0); state != breakerClosed || fails != 2 || trips != 0 {
		t.Fatalf("after 2 failures: %s fails=%d trips=%d", state, fails, trips)
	}
	// A success resets the consecutive count: failures must be consecutive
	// to trip the breaker.
	b.success()
	b.failure(t0)
	b.failure(t0)
	if state, _, _ := b.snapshot(t0); state != breakerClosed {
		t.Fatalf("non-consecutive failures tripped the breaker: %s", state)
	}
	b.failure(t0)
	if state, _, trips := b.snapshot(t0); state != breakerOpen || trips != 1 {
		t.Fatalf("after threshold consecutive failures: %s trips=%d, want open/1", state, trips)
	}
	if b.admit(t0.Add(b.cooldown / 2)) {
		t.Fatal("open breaker admitted before the cooldown elapsed")
	}

	// Cooldown elapsed: half-open, attempts admitted as trials.
	due := t0.Add(b.cooldown)
	if state, _, _ := b.snapshot(due); state != breakerHalfOpen {
		t.Fatalf("due breaker reports %s, want half-open", state)
	}
	if !b.admit(due) {
		t.Fatal("half-open breaker must admit a trial")
	}
	// A failed trial re-arms the cooldown without another trip.
	b.failure(due)
	if b.admit(due.Add(b.cooldown / 2)) {
		t.Fatal("failed trial did not re-arm the cooldown")
	}
	if _, _, trips := b.snapshot(due); trips != 1 {
		t.Fatalf("failed trial counted as a new trip: %d", trips)
	}
	// A successful trial closes it.
	b.success()
	if state, fails, _ := b.snapshot(due); state != breakerClosed || fails != 0 {
		t.Fatalf("after successful trial: %s fails=%d, want closed/0", state, fails)
	}
}

func TestBreakerDisabled(t *testing.T) {
	var b breaker // zero threshold: disabled
	now := time.Now()
	for i := 0; i < 100; i++ {
		b.failure(now)
	}
	if !b.admit(now) {
		t.Fatal("disabled breaker rejected an attempt")
	}
	if state, _, trips := b.snapshot(now); state != breakerDisabled || trips != 0 {
		t.Fatalf("disabled breaker reports %s/%d", state, trips)
	}
}

// newTestCoordinator builds a coordinator over fake URLs without probing.
func newTestCoordinator(t *testing.T, replicas int, opts ...Option) *Coordinator {
	t.Helper()
	urls := make([]string, replicas)
	for i := range urls {
		urls[i] = "http://replica" + string(rune('a'+i)) + ".invalid"
	}
	c, err := NewCoordinator([]Shard{{Name: "s0", Replicas: urls}}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestReplicaOrderPreservesConfiguredOrderWhenUnprobed(t *testing.T) {
	c := newTestCoordinator(t, 3)
	if got := c.replicaOrder(0); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("unprobed order = %v, want configured order", got)
	}
}

func TestReplicaOrderPrefersHealthyLowestEWMA(t *testing.T) {
	c := newTestCoordinator(t, 4)
	// replica 0: probed, up, slow. replica 1: probed, up, fast.
	// replica 2: probed but down. replica 3: never probed.
	c.reps[0][0].setProbe(true, true, 50*time.Millisecond)
	c.reps[0][1].setProbe(true, true, 2*time.Millisecond)
	c.reps[0][2].setProbe(false, false, 0)
	want := []int{1, 0, 3, 2}
	if got := c.replicaOrder(0); len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("order = %v, want %v (healthy by EWMA, then unknown, then down)", got, want)
	}

	// A warming replica (up but not ready) drops to the degraded class:
	// the remaining healthy replica leads, the unknown one follows, and
	// the warming + down pair trails (ordered by EWMA between them).
	c.reps[0][1].setProbe(true, false, 2*time.Millisecond)
	if got := c.replicaOrder(0); got[0] != 0 || got[1] != 3 {
		t.Fatalf("order with warming replica = %v, want [0 3 ...]", got)
	}
}

func TestReplicaOrderPutsOpenBreakerLast(t *testing.T) {
	c := newTestCoordinator(t, 2, WithBreaker(1, time.Hour))
	c.reps[0][0].br.failure(time.Now()) // trips immediately (threshold 1)
	if got := c.replicaOrder(0); got[0] != 1 || got[1] != 0 {
		t.Fatalf("order = %v, want the open-breaker replica last", got)
	}
}

func TestAttemptPlanRetryPasses(t *testing.T) {
	c := newTestCoordinator(t, 2, WithOpenRetries(2))
	plan := c.attemptPlan(0)
	if len(plan) != 6 {
		t.Fatalf("plan length = %d, want 2 replicas × 3 passes", len(plan))
	}
	for i, at := range plan {
		if at.rep != i%2 {
			t.Fatalf("plan[%d].rep = %d, want %d", i, at.rep, i%2)
		}
		wantWait := i == 2 || i == 4 // first slot of each retry pass
		if (at.wait > 0) != wantWait {
			t.Fatalf("plan[%d].wait = %s, backoff expected only at pass starts", i, at.wait)
		}
	}
	// Exponential growth between passes (jitter is ±50%, so the second
	// pass's backoff is at least the base and the third at least 2× base).
	if plan[2].wait < retryBackoff/2 || plan[4].wait < retryBackoff {
		t.Fatalf("backoffs %s, %s do not grow exponentially", plan[2].wait, plan[4].wait)
	}
}

func TestAttemptPlanNoRetries(t *testing.T) {
	c := newTestCoordinator(t, 3, WithOpenRetries(0))
	plan := c.attemptPlan(0)
	if len(plan) != 3 {
		t.Fatalf("plan length = %d, want one pass", len(plan))
	}
	for i, at := range plan {
		if at.wait != 0 {
			t.Fatalf("plan[%d] has backoff %s in the first pass", i, at.wait)
		}
	}
}

func TestCoordinatorDefaults(t *testing.T) {
	c := newTestCoordinator(t, 1)
	if c.shardTimeout != DefaultShardTimeout {
		t.Errorf("shardTimeout = %s, want %s", c.shardTimeout, DefaultShardTimeout)
	}
	if c.breakerThreshold != DefaultBreakerThreshold || c.breakerCooldown != DefaultBreakerCooldown {
		t.Errorf("breaker = %d/%s, want %d/%s",
			c.breakerThreshold, c.breakerCooldown, DefaultBreakerThreshold, DefaultBreakerCooldown)
	}
	if c.openRetries != DefaultOpenRetries {
		t.Errorf("openRetries = %d, want %d", c.openRetries, DefaultOpenRetries)
	}
	if c.probeInterval != 0 {
		t.Errorf("probing must default off: %s", c.probeInterval)
	}
	// The zero-value footgun: WithShardTimeout(0) must keep the bound.
	z := newTestCoordinator(t, 1, WithShardTimeout(0))
	if z.shardTimeout != DefaultShardTimeout {
		t.Errorf("WithShardTimeout(0) left timeout %s, want default %s", z.shardTimeout, DefaultShardTimeout)
	}
}
