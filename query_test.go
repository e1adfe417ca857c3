package influcomm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"influcomm/internal/cluster"
	"influcomm/internal/server"
)

// TestRunQueryPlanMatchesTopK pins the embedded DSL to the classic facade:
// a fixed-shape statement's communities serialize identically to the
// rendered TopK answer of the same shape.
func TestRunQueryPlanMatchesTopK(t *testing.T) {
	g := figure1(t)
	res, err := RunQuery(context.Background(), g, "topk(k=2, gamma=3); topk(k=2, gamma=3, semantics=noncontainment)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d statements, want 2", len(res))
	}

	classic, err := TopK(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want []ClusterCommunity
	for _, c := range classic.Communities {
		want = append(want, cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
	}
	got, err := json.Marshal(res[0].Nodes[0].Communities)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Errorf("core node:\ndsl     %s\nclassic %s", got, wantJSON)
	}

	nc, err := TopKNonContainment(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want = nil
	for _, c := range nc.Communities {
		want = append(want, cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
	}
	if got, wantJSON := mustJSON(t, res[1].Nodes[0].Communities), mustJSON(t, want); got != wantJSON {
		t.Errorf("noncontainment node:\ndsl     %s\nclassic %s", got, wantJSON)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunQueryMatchesServer runs one batch mixing core, non-containment,
// truss and near statements through RunQuery and through a server's
// /v1/query on the same graph: both execute every node through
// query.Exec, so each node's communities must be byte-identical in JSON
// form, and so must its shared flag.
func TestRunQueryMatchesServer(t *testing.T) {
	g := figure1(t)
	const batch = "topk(k=3, gamma=2..3, semantics=core+noncontainment+truss); " +
		"near(seeds=[0], k=2, gamma=2..3); near(seeds=[0], k=2, gamma=3) | limit(1); " +
		"topk(k=3, gamma=3, semantics=truss) | size(>=4)"
	res, err := RunQuery(context.Background(), g, batch)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(mustJSON(t, map[string]string{"query": batch})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Results []struct {
			Nodes []struct {
				Mode        string          `json:"mode"`
				Gamma       int             `json:"gamma"`
				Shared      bool            `json:"shared"`
				Communities json.RawMessage `json:"communities"`
			} `json:"nodes"`
		} `json:"results"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query status %d: %s", resp.StatusCode, body.Error)
	}
	if len(body.Results) != len(res) {
		t.Fatalf("server answered %d statements, RunQuery %d", len(body.Results), len(res))
	}
	modes := map[string]bool{}
	for si, st := range res {
		if len(body.Results[si].Nodes) != len(st.Nodes) {
			t.Fatalf("statement %d: server has %d nodes, RunQuery %d", si, len(body.Results[si].Nodes), len(st.Nodes))
		}
		for ni, n := range st.Nodes {
			want := body.Results[si].Nodes[ni]
			if n.Mode != want.Mode || n.Gamma != want.Gamma {
				t.Fatalf("statement %d node %d: RunQuery %s γ=%d, server %s γ=%d", si, ni, n.Mode, n.Gamma, want.Mode, want.Gamma)
			}
			if len(n.Communities) == 0 {
				t.Errorf("statement %d node %d (%s γ=%d): empty answer compares nothing", si, ni, n.Mode, n.Gamma)
			}
			modes[n.Mode] = true
			if got := mustJSON(t, n.Communities); got != string(want.Communities) {
				t.Errorf("statement %d node %d (%s γ=%d):\nRunQuery %s\nserver   %s", si, ni, n.Mode, n.Gamma, got, want.Communities)
			}
			if n.Shared != want.Shared {
				t.Errorf("statement %d node %d (%s γ=%d): shared %v, server %v", si, ni, n.Mode, n.Gamma, n.Shared, want.Shared)
			}
		}
	}
	if len(modes) != 3 || !res[2].Nodes[0].Shared || !res[3].Nodes[0].Shared {
		t.Errorf("batch lost coverage: modes %v, shared flags %v %v", modes, res[2].Nodes[0].Shared, res[3].Nodes[0].Shared)
	}
}

// TestRunQueryCSESharesNodes shows within-batch sharing: two statements
// expanding to the same plan node compute once, the second is marked
// Shared and carries the identical answer; filters stay per statement.
func TestRunQueryCSESharesNodes(t *testing.T) {
	g := figure1(t)
	res, err := RunQuery(context.Background(), g,
		"topk(k=3, gamma=2); topk(k=3, gamma=2) | limit(1)")
	if err != nil {
		t.Fatal(err)
	}
	first, second := res[0].Nodes[0], res[1].Nodes[0]
	if first.Shared || !second.Shared {
		t.Errorf("shared flags = %v, %v; want false, true", first.Shared, second.Shared)
	}
	if len(second.Communities) > 1 {
		t.Errorf("limit(1) kept %d communities", len(second.Communities))
	}
	if len(first.Communities) == 0 {
		t.Fatal("no communities at all")
	}
	if first.Communities[0].Influence != second.Communities[0].Influence {
		t.Errorf("shared node diverged: %v vs %v",
			first.Communities[0].Influence, second.Communities[0].Influence)
	}
}

// TestRunQueryPlanNear pins the seed-scoped path to TopKNearQuery: same
// seeds, same shape, same communities.
func TestRunQueryPlanNear(t *testing.T) {
	g := figure1(t)
	res, err := RunQuery(context.Background(), g, "near(seeds=[0], k=2, gamma=2)")
	if err != nil {
		t.Fatal(err)
	}
	rw, classic, err := TopKNearQuery(g, []int32{0}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []ClusterCommunity
	for _, c := range classic.Communities {
		want = append(want, cluster.Render(rw, c.Influence(), c.Keynode(), c.Vertices()))
	}
	got, err := json.Marshal(res[0].Nodes[0].Communities)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Errorf("near node:\ndsl    %s\nfacade %s", got, wantJSON)
	}
}

// TestParseQueryFacade exercises the parse-only entry point: canonical
// printing is a fixpoint, and syntax errors surface.
func TestParseQueryFacade(t *testing.T) {
	q, err := ParseQuery("topk( k=3 , gamma = 2..4 )|influence(>= 12)")
	if err != nil {
		t.Fatal(err)
	}
	canon := q.String()
	again, err := ParseQuery(canon)
	if err != nil {
		t.Fatalf("reparsing canonical %q: %v", canon, err)
	}
	if again.String() != canon {
		t.Errorf("canonical print is not a fixpoint: %q -> %q", canon, again.String())
	}
	if _, err := ParseQuery("topk(k=nope)"); err == nil {
		t.Error("want parse error for k=nope")
	}
}
