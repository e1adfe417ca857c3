package truss

import (
	"context"
	"errors"
	"testing"
	"time"

	"influcomm/internal/core"
)

func TestLocalSearchCtxExpiredDeadline(t *testing.T) {
	ix := NewIndex(clique(t, 12))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := LocalSearchCtx(ctx, ix, 3, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// Validation still beats the context check.
	if _, err := LocalSearchCtx(ctx, ix, 0, 4); errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("invalid k should fail validation, not report the deadline")
	}
}

func TestLocalSearchCtxMatchesLocalSearch(t *testing.T) {
	ix := NewIndex(clique(t, 12))
	want, err := LocalSearch(ix, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LocalSearchCtx(context.Background(), ix, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Communities) != len(want.Communities) || got.Stats != want.Stats {
		t.Fatalf("ctx variant diverges: %d communities %+v, want %d %+v",
			len(got.Communities), got.Stats, len(want.Communities), want.Stats)
	}
	for i := range want.Communities {
		if got.Communities[i].Influence() != want.Communities[i].Influence() {
			t.Errorf("community %d: influence %v, want %v",
				i, got.Communities[i].Influence(), want.Communities[i].Influence())
		}
	}
}

// TestCountICCCtxCancelDuringPeel drives the counting subroutine with a
// cancelled context on a prefix whose edge count spans several poll
// intervals: the cancellation must be observed inside the support/peel
// phase — the dominant cost of a truss round — not only between keynodes.
func TestCountICCCtxCancelDuringPeel(t *testing.T) {
	n := 150 // K150: 11175 edges > 2 poll intervals
	ix := NewIndex(clique(t, n))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := countICCFromCtx(ctx, ix, n, 0, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestStreamCtxCancelMidQuery cancels from inside the first yield; the
// stream must stop with ctx.Err() instead of draining the whole graph.
func TestStreamCtxCancelMidQuery(t *testing.T) {
	ix := NewIndex(clique(t, 30))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	_, err := StreamCtx(ctx, ix, 4, func(*core.Community) bool {
		yields++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if yields == 0 {
		t.Fatal("stream never reached a yield")
	}
}
