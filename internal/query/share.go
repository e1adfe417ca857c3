package query

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Sharer computes identical plan nodes exactly once across concurrent
// queries. It combines singleflight (concurrent requests for one key join
// the in-flight computation) with a bounded LRU memo (a request arriving
// after completion reuses the result), both keyed on the node's canonical
// Key *and* the snapshot epoch it executes against — sharing never crosses
// epochs, so an answer computed before an update is never served for a
// plan node that must see the update.
//
// The memo holds only the newest epoch the Sharer has seen: Advance, or the
// first Do at a newer epoch, drops every older answer, whichever path
// published the update. A Do at an older epoch — a request pinned before
// the update — still joins identical in-flight work at its epoch, but its
// answer is not memoized.
//
// Errors are never memoized; a leader cancelled by its own caller is
// retried by any follower whose context is still live.
type Sharer struct {
	mu    sync.Mutex
	calls map[callKey]*sharedCall
	memo  map[string]*list.Element // keys at epoch, each an element of lru
	lru   *list.List               // memoEntry values, most recently used first
	epoch uint64                   // the newest epoch seen; the memo's epoch
	cap   int

	hits  atomic.Int64
	execs atomic.Int64
	// onExec, when set, observes every real execution (the CSE tests'
	// build-count hook).
	onExec atomic.Pointer[func(key string)]
}

// callKey names one in-flight computation.
type callKey struct {
	epoch uint64
	key   string
}

type sharedCall struct {
	done chan struct{}
	val  any
	err  error
}

type memoEntry struct {
	key string
	val any
}

// NewSharer returns a Sharer whose memo keeps at most capacity completed
// results of the newest epoch, evicting the least recently used. A
// capacity of 0 (or less) memoizes nothing: the Sharer then only joins
// concurrent identical calls.
func NewSharer(capacity int) *Sharer {
	return &Sharer{
		calls: make(map[callKey]*sharedCall),
		memo:  make(map[string]*list.Element),
		lru:   list.New(),
		cap:   max(capacity, 0),
	}
}

// Do returns the result of fn for (epoch, key), computing it at most once
// across all concurrent and recent callers of the same pair. shared
// reports whether the caller reused work (memo hit or joined an in-flight
// computation) rather than executing fn itself.
func (s *Sharer) Do(ctx context.Context, epoch uint64, key string, fn func() (any, error)) (val any, shared bool, err error) {
	ck := callKey{epoch, key}
	for {
		s.mu.Lock()
		s.advance(epoch)
		if el, ok := s.memo[key]; ok && epoch == s.epoch {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			s.hits.Add(1)
			return el.Value.(*memoEntry).val, true, nil
		}
		if c, ok := s.calls[ck]; ok {
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if c.err == nil {
				s.hits.Add(1)
				return c.val, true, nil
			}
			// The leader failed. If it was merely cancelled, its failure
			// says nothing about the computation — take over as leader
			// (we know our own context is live). Real errors propagate.
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				continue
			}
			return nil, false, c.err
		}
		c := &sharedCall{done: make(chan struct{})}
		s.calls[ck] = c
		s.mu.Unlock()

		s.execs.Add(1)
		if hook := s.onExec.Load(); hook != nil {
			(*hook)(key)
		}
		c.val, c.err = fn()

		s.mu.Lock()
		delete(s.calls, ck)
		if c.err == nil && epoch == s.epoch && s.cap > 0 {
			s.memo[key] = s.lru.PushFront(&memoEntry{key: key, val: c.val})
			if s.lru.Len() > s.cap {
				delete(s.memo, s.lru.Remove(s.lru.Back()).(*memoEntry).key)
			}
		}
		s.mu.Unlock()
		close(c.done)
		return c.val, false, c.err
	}
}

// Advance tells the Sharer that epoch is published. If it is newer than
// every epoch seen so far, no later request can read the older answers, so
// the memo frees them now instead of at the first Do on the new epoch: a
// memoized answer can hold its snapshot's graph alive.
func (s *Sharer) Advance(epoch uint64) {
	s.mu.Lock()
	s.advance(epoch)
	s.mu.Unlock()
}

func (s *Sharer) advance(epoch uint64) {
	if epoch > s.epoch {
		clear(s.memo)
		s.lru.Init()
		s.epoch = epoch
	}
}

// Len returns how many completed results the memo holds.
func (s *Sharer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// Hits returns how many Do calls reused shared work instead of executing.
func (s *Sharer) Hits() int64 { return s.hits.Load() }

// Execs returns how many times Do actually executed a computation.
func (s *Sharer) Execs() int64 { return s.execs.Load() }

// SetExecHook installs (or, with nil, removes) a function observing every
// real execution's key. It exists for tests that assert exactly how many
// decompositions a batch performed.
func (s *Sharer) SetExecHook(hook func(key string)) {
	if hook == nil {
		s.onExec.Store(nil)
		return
	}
	s.onExec.Store(&hook)
}
