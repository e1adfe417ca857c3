package influcomm

// This file is the public surface of the distributed serving tier
// (internal/cluster): graph partitioning for shard deployment and the
// scatter-gather coordinator client. The serving processes themselves are
// cmd/icserver (shards) and cmd/iccoord (coordinator); docs/CLUSTER.md
// specifies the wire protocol and docs/OPERATIONS.md the deployment runbook.

import (
	"influcomm/internal/cluster"
	"influcomm/internal/graph"
)

// ClusterShard names one partition of a dataset and its replica URLs.
type ClusterShard = cluster.Shard

// ClusterResult is one merged scatter-gather answer: the global top-k, the
// per-shard snapshot epoch vector, and the degradation markers.
type ClusterResult = cluster.Result

// ClusterCommunity is the wire shape of one community, shared by shard
// streams, single-node /v1/topk responses, and merged coordinator answers.
type ClusterCommunity = cluster.Community

// ClusterOption configures a coordinator built with NewClusterCoordinator.
type ClusterOption = cluster.Option

// ClusterCoordinator scatters top-k queries across icserver shards and
// merges their progressive decreasing-influence streams into the global
// answer, stopping each shard as soon as the k best global results dominate
// its next candidate. Safe for concurrent use.
type ClusterCoordinator = cluster.Coordinator

// Query semantics accepted by shards and coordinators.
const (
	// ClusterModeCore is the paper's default containment semantics.
	ClusterModeCore = cluster.ModeCore
	// ClusterModeNonContainment keeps only communities with no nested
	// sub-community.
	ClusterModeNonContainment = cluster.ModeNonContainment
	// ClusterModeTruss uses the γ-truss cohesiveness measure.
	ClusterModeTruss = cluster.ModeTruss
)

// NewClusterCoordinator builds a coordinator over the given shard topology.
// Results merged from shards built with PartitionGraph are byte-identical to
// single-node answers over the unpartitioned graph.
func NewClusterCoordinator(shards []ClusterShard, opts ...ClusterOption) (*ClusterCoordinator, error) {
	return cluster.NewCoordinator(shards, opts...)
}

// WithClusterShardTimeout bounds each shard attempt; a replica exceeding it
// is failed over like a dead one. A non-positive duration keeps the 30s
// default — a shard attempt always has a bound.
var WithClusterShardTimeout = cluster.WithShardTimeout

// WithClusterPartialResults selects degraded serving: when a shard exhausts
// its replicas the query continues over the survivors and the result is
// marked partial. The default is strict — any shard failure fails the query.
var WithClusterPartialResults = cluster.WithPartialResults

// WithClusterHTTPClient substitutes the HTTP client used for shard streams
// and health probes.
var WithClusterHTTPClient = cluster.WithHTTPClient

// WithClusterHealthProbes enables active background health probing of every
// replica's /healthz at the given interval, maintaining up/ready state and a
// latency EWMA that drive health-aware replica selection. A non-positive
// interval disables probing (the default); a non-positive timeout keeps the
// 1s default.
var WithClusterHealthProbes = cluster.WithHealthProbes

// WithClusterBreaker configures the per-replica circuit breakers: threshold
// consecutive failures open a breaker, and after cooldown it admits a
// half-open trial. Zero threshold disables breakers; the defaults are 5
// failures and a 5s cooldown.
var WithClusterBreaker = cluster.WithBreaker

// WithClusterOpenRetries sets how many extra jittered-backoff passes over a
// shard's replica list a query makes after the first, before the shard is
// declared failed. The default is 1 extra pass.
var WithClusterOpenRetries = cluster.WithOpenRetries

// ClusterShardStatus reports one shard's per-replica resilience state, as
// returned by ClusterCoordinator.Status and /v1/cluster.
type ClusterShardStatus = cluster.ShardStatus

// ClusterReplicaStatus is one replica's resilience state: breaker state,
// probe results, and the latency EWMA (documented field-by-field in
// docs/CLUSTER.md).
type ClusterReplicaStatus = cluster.ReplicaStatus

// PartitionGraph splits g into at most n shard graphs whose vertex sets are
// unions of whole connected components, balanced by vertex count. Every
// influential community (core or truss) is connected, so it lives entirely
// inside one shard; serving the shards behind a coordinator reproduces the
// unpartitioned graph's answers exactly. Fewer than n graphs are returned
// when g has fewer components than n — a shard is never empty.
func PartitionGraph(g *Graph, n int) ([]*Graph, error) {
	return cluster.Partition(g, n)
}

// Subgraph extracts the subgraph of g induced by the given vertices (weight
// ranks, strictly ascending), preserving weights, original IDs, labels, and
// relative rank order.
func Subgraph(g *Graph, vertices []int32) (*Graph, error) {
	return graph.InducedSubgraph(g, vertices)
}
