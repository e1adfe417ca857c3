package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/graph"
	"influcomm/internal/server"
)

func TestParseShardSpec(t *testing.T) {
	cases := []struct {
		spec string
		want cluster.Shard
		bad  bool
	}{
		{spec: "a=http://h1:8080", want: cluster.Shard{Name: "a", Replicas: []string{"http://h1:8080"}}},
		{
			spec: "a=http://h1:8080,https://h2:8080,dataset=web",
			want: cluster.Shard{Name: "a", Replicas: []string{"http://h1:8080", "https://h2:8080"}, Dataset: "web"},
		},
		{spec: "a", bad: true},
		{spec: "=http://h1", bad: true},
		{spec: "a=", bad: true},
		{spec: "a=h1:8080", bad: true},           // not a URL
		{spec: "a=dataset=web", bad: true},       // no replicas
		{spec: "a=http://h1,weird=x", bad: true}, // unknown option
	}
	for _, tc := range cases {
		got, err := parseShardSpec(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("%q: no error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// TestServeSmoke boots the coordinator against two real shard servers on an
// ephemeral port and runs one query end to end.
func TestServeSmoke(t *testing.T) {
	weights := []float64{5, 6, 7, 8, 9, 10}
	edges := [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}
	g := graph.MustFromEdges(weights, edges)
	parts, err := cluster.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var shards []cluster.Shard
	for i, pg := range parts {
		s, err := server.New(pg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		shards = append(shards, cluster.Shard{Name: fmt.Sprintf("s%d", i), Replicas: []string{ts.URL}})
	}

	cfg := config{
		addr:            "127.0.0.1:0",
		shards:          shards,
		maxK:            100,
		shardTimeout:    5 * time.Second,
		readTimeout:     5 * time.Second,
		writeTimeout:    5 * time.Second,
		idleTimeout:     time.Minute,
		shutdownTimeout: 5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serve exited early: %v", err)
	}

	resp, err := http.Get("http://" + addr + "/v1/topk?k=2&gamma=2")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Communities []cluster.Community `json:"communities"`
		Epochs      map[string]uint64   `json:"epochs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body.Communities) != 2 || len(body.Epochs) != 2 {
		t.Fatalf("status %d, body %+v", resp.StatusCode, body)
	}
	// Both triangles are 2-cores; the merged order is by influence.
	if body.Communities[0].Influence != 8 || body.Communities[1].Influence != 5 {
		t.Errorf("influences %v, %v, want 8, 5",
			body.Communities[0].Influence, body.Communities[1].Influence)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := config{shardTimeout: time.Second, probeInterval: time.Second,
		probeTimeout: time.Second, breakerCooldown: time.Second, breakerThreshold: 5, shardRetries: 1}
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*config)
	}{
		{"negative shard-timeout", func(c *config) { c.shardTimeout = -time.Second }},
		{"negative probe-interval", func(c *config) { c.probeInterval = -1 }},
		{"negative probe-timeout", func(c *config) { c.probeTimeout = -1 }},
		{"negative breaker-cooldown", func(c *config) { c.breakerCooldown = -1 }},
		{"negative breaker-threshold", func(c *config) { c.breakerThreshold = -1 }},
		{"negative shard-retries", func(c *config) { c.shardRetries = -1 }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
