package truss

import (
	"context"

	"influcomm/internal/core"
)

// CountICCFrom is the truss ConstructCVS (the Algorithm 5 counterpart for
// the truss measure): it runs CountICC on the prefix [0, p) but stops
// before processing any keynode with rank < stopBefore, producing only the
// keynodes new to this round. The suffix property of §4 carries over to
// the truss measure (Property-II of §5.2), which the property tests check.
func CountICCFrom(ix *Index, p, stopBefore int, gamma int32) *CVS {
	c, _ := countICCFromCtx(context.Background(), ix, p, stopBefore, gamma)
	return c
}

// ctxCheckInterval is the number of work units (support computations,
// removed edges, keynode iterations) between two context polls inside a
// CountICC run.
const ctxCheckInterval = 4096

// countICCFromCtx is CountICCFrom under a context: the runner polls it
// throughout support initialization, truss peeling, and keynode removal —
// the peel is the dominant cost, so a cancelled context aborts the run
// promptly with ctx.Err().
func countICCFromCtx(ctx context.Context, ix *Index, p, stopBefore int, gamma int32) (*CVS, error) {
	r := newRunner(ctx, ix, p, gamma)
	r.peelTruss()
	if r.err != nil {
		return nil, r.err
	}
	c := &CVS{P: p, KeyPos: []int32{0}}
	for u := int32(p) - 1; u >= int32(stopBefore); u-- {
		if !r.tick(1) {
			return nil, r.err
		}
		if r.vdeg[u] == 0 {
			continue
		}
		c.Keys = append(c.Keys, u)
		r.removeVertex(u, &c.Seq)
		if r.err != nil {
			return nil, r.err
		}
		c.KeyPos = append(c.KeyPos, int32(len(c.Seq)))
	}
	return c, nil
}

// Stream progressively reports influential γ-truss communities in
// decreasing influence order (the §4 progressive technique applied to the
// §5.2 truss measure). yield returning false stops the search; the number
// of vertices of the largest prefix processed is returned.
func Stream(ix *Index, gamma int32, yield func(*core.Community) bool) (int, error) {
	return StreamCtx(context.Background(), ix, gamma, yield)
}

// StreamCtx is Stream under a context: cancellation is observed at round
// boundaries and inside CountICC, stopping the search promptly. It runs
// the rounds of core.Search with k = 1, each enumerating only the keynodes
// new to its prefix on one core.EnumState shared across rounds, so a new
// community links to the earlier ones nested inside it; on error the
// returned prefix is the last completed round's.
func StreamCtx(ctx context.Context, ix *Index, gamma int32, yield func(*core.Community) bool) (int, error) {
	if err := validate(ix, 1, gamma); err != nil {
		return 0, err
	}
	enum := core.NewEnumState(ix.g.NumVertices())
	st, err := core.Search(ctx, ix.g, 1, gamma, core.Options{}, func(p, prev int) (bool, error) {
		cvs, err := countICCFromCtx(ctx, ix, p, prev, gamma)
		if err != nil {
			return false, err
		}
		for _, c := range enumerate(enum, ix, cvs, -1) {
			if !yield(c) {
				return true, nil
			}
		}
		return false, nil
	})
	return st.FinalPrefix, err
}
