package activerules

import "activerules/internal/cluster"

// Automatic failover: a ClusterNode supervises one member of a
// leader/follower pair, using WAL fencing epochs, leases piggybacked on
// the replication stream, and split-brain-safe promotion so the pair
// heals itself after crashes and partitions while preserving a single
// epoch-ordered history. See internal/cluster and DESIGN.md §14 for the
// safety argument.

// Re-exported failover types.
type (
	// ClusterNode supervises one member of the replicated pair,
	// transitioning it between leader (Server + ReplicaSource) and
	// follower (Follower + probe responder) as epochs and leases
	// dictate.
	ClusterNode = cluster.Node
	// ClusterConfig assembles a cluster node. Schema and Defs are
	// filled in by System.NewClusterNode.
	ClusterConfig = cluster.Config
	// NotLeaderError refuses a request on a node that cannot currently
	// acknowledge writes; Leader carries the believed leader's client
	// address for redirects.
	NotLeaderError = cluster.NotLeaderError
	// UnackedError reports an indeterminate commit: durable on this
	// leader, not acknowledged by the follower within twice the lease.
	UnackedError = cluster.UnackedError
)

// NewClusterNode starts a failover supervisor for this system over the
// WAL directory named in cfg.Dir. Exactly one node of the pair sets
// cfg.Bootstrap; the node elects its own role and re-elects on peer
// failure.
func (s *System) NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) {
	cfg.Schema = s.schema
	cfg.Defs = s.defs
	return cluster.New(cfg)
}
