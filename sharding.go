package activerules

import (
	"activerules/internal/analysis"
	"activerules/internal/replica"
	"activerules/internal/shard"
)

// Sharding and replication: the §7 horizontal-scale step. The analyzer
// proves a maximal partition of the schema's tables into groups with
// pairwise-disjoint Sig(T') (Theorem 7.2 then makes rule processing on
// different groups commute), a ShardGroup serves that partition with
// one engine+WAL per shard, and a ReplicaSource streams each leader's
// durable WAL bytes to Followers. See DESIGN.md §10 for the soundness
// argument.

// Re-exported sharding and replication types.
type (
	// ShardPlan is the maximal analysis-proven partition of the
	// schema's tables into independently servable groups. Its Blockers
	// method lists the rulelint-style blockers that prevent a finer
	// partition, built afresh on each call; String and MarshalJSON
	// render them too. Both forms are deterministic.
	ShardPlan = analysis.ShardPlan
	// ShardGroup runs one serving engine (with its own WAL, breaker,
	// and checkpoint/drain) per effective shard of the plan, routing
	// each request to the shard owning its tables.
	ShardGroup = shard.Group
	// ShardError reports a request that cannot be confined to one
	// shard; the request was not executed.
	ShardError = shard.ShardError
	// ReplicaSource streams a leader server's durable WAL bytes to
	// followers over TCP.
	ReplicaSource = replica.Source
	// ReplicaSourceConfig tunes a ReplicaSource.
	ReplicaSourceConfig = replica.SourceConfig
	// Follower replays a leader's WAL stream into a local directory
	// and read-only database, serving health and a state fingerprint;
	// Promote turns it into a full server after a leader failure.
	Follower = replica.Follower
	// FollowerConfig tunes a Follower.
	FollowerConfig = replica.FollowerConfig
)

// ShardPlan computes the maximal analysis-proven shard partition for
// this system. The plan is deterministic: equal systems yield
// byte-identical plans.
func (s *System) ShardPlan() *ShardPlan {
	return s.Analyzer(nil).ShardPlan()
}

// NewShardGroup opens one serving engine per shard of this system's
// plan under dir, coalesced to at most n shards (n <= 0 means as many
// as the plan allows). cfg applies to every shard.
func (s *System) NewShardGroup(dir string, n int, cfg ServeConfig) (*ShardGroup, error) {
	return shard.Open(s.schema, s.defs, dir, n, cfg)
}

// NewReplicaSource starts streaming the leader's durable WAL to
// followers connecting at addr (e.g. "127.0.0.1:0").
func NewReplicaSource(leader *Server, addr string, cfg ReplicaSourceConfig) (*ReplicaSource, error) {
	return replica.NewSource(leader, addr, cfg)
}

// NewFollower starts a follower replicating from the source at addr
// into dir, using this system's schema.
func (s *System) NewFollower(dir, addr string, cfg FollowerConfig) (*Follower, error) {
	return replica.NewFollower(s.schema, dir, addr, cfg)
}
