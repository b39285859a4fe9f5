package cluster

import "fmt"

// Each error names its own stable wire code (serve.CodeOf). On
// "redirect" the client's move is to resend to the leader (a front end
// adds Leader to the body when known); "unacked" is distinct from
// "durability", which means the transaction did not commit.
func (e *NotLeaderError) Code() string { return "redirect" }
func (e *UnackedError) Code() string   { return "unacked" }

// NotLeaderError refuses a request on a node that cannot currently
// acknowledge writes: a follower (Leader carries the advertised
// address from its lease, for client redirects), or a nominal leader
// whose follower-ack lease has lapsed (Suspended — it may be on the
// minority side of a partition, and accepting writes it could never
// get acknowledged would only manufacture indeterminate outcomes).
type NotLeaderError struct {
	// Leader is the advertised client address of the believed leader,
	// "" when unknown.
	Leader string
	// Suspended marks a leader refusing writes because its follower
	// has not acknowledged within the lease.
	Suspended bool
}

func (e *NotLeaderError) Error() string {
	switch {
	case e.Suspended:
		return "cluster: leadership suspended (no follower ack within the lease)"
	case e.Leader != "":
		return fmt.Sprintf("cluster: not the leader (leader at %s)", e.Leader)
	default:
		return "cluster: not the leader"
	}
}

// UnackedError reports an indeterminate commit: the transaction is
// durable on this leader but the follower did not acknowledge it
// within 2*Lease. If the leader survives, the commit stands; if the
// follower promotes instead, the commit may be discarded. Clients must
// treat the outcome as unknown — exactly the semantics of a timed-out
// write to any synchronously replicated store.
type UnackedError struct {
	Gen   uint64
	Off   int64
	Cause error
}

func (e *UnackedError) Error() string {
	return fmt.Sprintf("cluster: commit at (%d, %d) not acknowledged by follower: %v", e.Gen, e.Off, e.Cause)
}

func (e *UnackedError) Unwrap() error { return e.Cause }
