package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCSESharerComputesOnce(t *testing.T) {
	// A memo catches the callers scheduled only after the leader finished.
	s := NewSharer(4)
	var builds atomic.Int64
	s.SetExecHook(func(string) { builds.Add(1) })

	const callers = 32
	var wg sync.WaitGroup
	release := make(chan struct{})
	vals := make([]any, callers)
	sharedCount := atomic.Int64{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := s.Do(context.Background(), 1, "topk(k=3, gamma=2, semantics=core)", func() (any, error) {
				<-release // hold the call open so every goroutine joins it
				return "result", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want exactly 1", got)
	}
	if got := s.Execs(); got != 1 {
		t.Fatalf("Execs = %d, want 1", got)
	}
	if got := s.Hits(); got != callers-1 {
		t.Fatalf("Hits = %d, want %d", got, callers-1)
	}
	if got := sharedCount.Load(); got != callers-1 {
		t.Fatalf("shared reported by %d callers, want %d", got, callers-1)
	}
	for i, v := range vals {
		if v != "result" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

func TestCSESharerMemoHit(t *testing.T) {
	s := NewSharer(4)
	exec := func() (any, error) { return 42, nil }
	if _, shared, _ := s.Do(context.Background(), 7, "n", exec); shared {
		t.Fatal("first call reported shared")
	}
	v, shared, err := s.Do(context.Background(), 7, "n", exec)
	if err != nil || !shared || v != 42 {
		t.Fatalf("memo hit: v=%v shared=%v err=%v", v, shared, err)
	}
	if s.Execs() != 1 || s.Hits() != 1 {
		t.Fatalf("execs=%d hits=%d", s.Execs(), s.Hits())
	}
}

func TestCSESharerNeverCrossesEpochs(t *testing.T) {
	s := NewSharer(4)
	var builds atomic.Int64
	fn := func() (any, error) { return builds.Add(1), nil }
	if _, shared, _ := s.Do(context.Background(), 1, "n", fn); shared {
		t.Fatal("epoch 1 first call shared")
	}
	// Same key, newer epoch: must execute again, never reuse epoch 1's answer.
	v, shared, err := s.Do(context.Background(), 2, "n", fn)
	if err != nil || shared {
		t.Fatalf("epoch 2: shared=%v err=%v", shared, err)
	}
	if v != int64(2) || builds.Load() != 2 {
		t.Fatalf("epoch 2 got %v after %d builds", v, builds.Load())
	}
	// Epoch 2 freed epoch 1's answer: a late epoch-1 request executes
	// again, and its answer is not memoized over epoch 2's.
	v, shared, _ = s.Do(context.Background(), 1, "n", fn)
	if shared || v != int64(3) {
		t.Fatalf("epoch 1 re-read: v=%v shared=%v, want a fresh execution", v, shared)
	}
	if v, shared, _ = s.Do(context.Background(), 2, "n", fn); !shared || v != int64(2) {
		t.Fatalf("epoch 2 re-read: v=%v shared=%v, want epoch 2's memoized answer", v, shared)
	}
}

func TestCSESharerErrorsNotMemoized(t *testing.T) {
	// With room in the memo, only the error keeps the answer out of it.
	s := NewSharer(4)
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) { calls++; return nil, boom }
	if _, _, err := s.Do(context.Background(), 1, "n", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := s.Do(context.Background(), 1, "n", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("failing computation ran %d times, want 2 (errors must not be memoized)", calls)
	}
}

func TestCSESharerFollowerRetriesCancelledLeader(t *testing.T) {
	s := NewSharer(0)
	leaderStarted := make(chan struct{})
	leaderRelease := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	var leaderErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, leaderErr = s.Do(leaderCtx, 1, "n", func() (any, error) {
			close(leaderStarted)
			<-leaderRelease
			return nil, leaderCtx.Err() // leader was cancelled mid-flight
		})
	}()
	<-leaderStarted

	followerDone := make(chan struct{})
	var fv any
	var ferr error
	go func() {
		defer close(followerDone)
		fv, _, ferr = s.Do(context.Background(), 1, "n", func() (any, error) {
			return "fresh", nil
		})
	}()

	cancelLeader()
	close(leaderRelease)
	<-done
	<-followerDone

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader err = %v", leaderErr)
	}
	if ferr != nil || fv != "fresh" {
		t.Fatalf("follower after cancelled leader: v=%v err=%v (should have retaken the computation)", fv, ferr)
	}
}

func TestCSESharerMemoBounded(t *testing.T) {
	s := NewSharer(2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("n%d", i)
		if _, _, err := s.Do(context.Background(), 1, key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	n := len(s.memo)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("memo holds %d entries, want 2", n)
	}
	// The two newest keys survive; the oldest were evicted.
	if _, shared, _ := s.Do(context.Background(), 1, "n4", func() (any, error) { return -1, nil }); !shared {
		t.Fatal("newest key evicted")
	}
	if _, shared, _ := s.Do(context.Background(), 1, "n0", func() (any, error) { return -1, nil }); shared {
		t.Fatal("oldest key unexpectedly retained")
	}
}

// TestCSESharerLRURecency: the memo evicts the least recently used entry,
// and a hit refreshes recency.
func TestCSESharerLRURecency(t *testing.T) {
	s := NewSharer(2)
	do := func(key string) bool {
		t.Helper()
		_, shared, err := s.Do(context.Background(), 0, key, func() (any, error) { return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		return shared
	}
	do("k1")
	do("k2")
	if !do("k1") {
		t.Fatal("k1 evicted prematurely")
	}
	do("k3") // evicts k2, the least recently used
	if !do("k1") {
		t.Error("k1 should have survived (recently used)")
	}
	if !do("k3") {
		t.Error("k3 should be present")
	}
	if do("k2") {
		t.Error("k2 should have been evicted")
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

// TestCSESharerZeroCapacityJoinsOnly: with no memo capacity a completed
// answer is never reused, yet concurrent identical calls still share one
// execution.
func TestCSESharerZeroCapacityJoinsOnly(t *testing.T) {
	s := NewSharer(0)
	started, release := make(chan struct{}), make(chan struct{})
	shared := make(chan bool, 2)
	go func() {
		_, sh, _ := s.Do(context.Background(), 0, "n", func() (any, error) {
			close(started)
			<-release
			return 1, nil
		})
		shared <- sh
	}()
	<-started
	follower := newWaitSignal()
	go func() {
		_, sh, _ := s.Do(follower, 0, "n", func() (any, error) { return 2, nil })
		shared <- sh
	}()
	<-follower.waiting
	close(release)
	if a, b := <-shared, <-shared; a == b {
		t.Fatalf("shared = %v/%v, want exactly one joiner", a, b)
	}
	if s.Execs() != 1 || s.Len() != 0 {
		t.Fatalf("execs=%d len=%d, want 1 execution and an empty memo", s.Execs(), s.Len())
	}
	if _, sh, _ := s.Do(context.Background(), 0, "n", func() (any, error) { return 3, nil }); sh {
		t.Fatal("a completed answer was reused at capacity 0")
	}
}

// TestCSESharerOlderEpochJoinsInFlight: a request pinned before an update
// joins identical in-flight work at its own epoch, is answered, and leaves
// nothing in the memo of the newer epoch.
func TestCSESharerOlderEpochJoinsInFlight(t *testing.T) {
	s := NewSharer(4)
	if _, _, err := s.Do(context.Background(), 2, "m", func() (any, error) { return "e2", nil }); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	type res struct {
		v      any
		shared bool
	}
	out := make(chan res, 2)
	go func() {
		v, sh, _ := s.Do(context.Background(), 1, "n", func() (any, error) {
			close(started)
			<-release
			return "e1", nil
		})
		out <- res{v, sh}
	}()
	<-started
	follower := newWaitSignal()
	go func() {
		v, sh, _ := s.Do(follower, 1, "n", func() (any, error) { return "again", nil })
		out <- res{v, sh}
	}()
	<-follower.waiting
	close(release)
	a, b := <-out, <-out
	if a.v != "e1" || b.v != "e1" || a.shared == b.shared {
		t.Fatalf("epoch-1 callers got %+v and %+v, want one execution shared by both", a, b)
	}
	if s.Execs() != 2 || s.Len() != 1 {
		t.Fatalf("execs=%d len=%d, want 2 executions and only epoch 2's entry memoized", s.Execs(), s.Len())
	}
}

// waitSignal is a live context that closes waiting the first time a caller
// waits on it. Do waits on its context only as a follower, after joining
// an in-flight call.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitSignal() *waitSignal {
	return &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}
