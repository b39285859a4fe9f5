package serve

import (
	"fmt"
	"time"
)

// The serving layer's failure taxonomy, layered over the engine's
// (internal/engine/errors.go). Every Submit error is one of:
//
//   - *OverloadError — the request was rejected ON ARRIVAL: the
//     admission queue is full, or the projected queue wait already
//     exceeds the request's deadline (shedding at the door beats
//     queueing work that is doomed to expire).
//   - *DeadlineError — the request was admitted but its deadline
//     expired while it was still queued; it was shed without occupying
//     an execution slot.
//   - *ClosedError — the server is draining, closed, or failed; no new
//     work is admitted.
//   - the engine taxonomy (*ExecError, *LivelockError, *CancelledError,
//     *DurabilityError, ErrMaxSteps), passed through for requests that
//     were admitted and executed. Whatever the failure, the request's
//     transaction was rolled back: a failed request never happened.

// Each error names its own stable wire code; CodeOf (service.go) reads
// it off a chain. Whatever wedged a server (ClosedError.Cause), the
// client's answer is that this server takes no more work.
func (e *OverloadError) Code() string { return "overload" }
func (e *DeadlineError) Code() string { return "deadline" }
func (e *ClosedError) Code() string   { return CodeClosed }

// OverloadReason says why admission rejected a request.
type OverloadReason string

const (
	// OverloadQueueFull: the bounded admission queue had no free slot.
	OverloadQueueFull OverloadReason = "queue-full"
	// OverloadProjectedWait: the projected queue wait (queue length ×
	// average service time) exceeded the request's deadline.
	OverloadProjectedWait OverloadReason = "projected-wait"
)

// OverloadError reports deadline-aware load shedding at admission. The
// request was never queued and had no effect.
type OverloadError struct {
	// Tenant is the id of the tenant whose admission rejected the
	// request (empty on a single-tenant server).
	Tenant string
	Reason OverloadReason
	// QueueLen and QueueCap describe the admission queue at rejection.
	QueueLen, QueueCap int
	// ProjectedWait is the estimated queue wait at arrival (zero for
	// queue-full rejections).
	ProjectedWait time.Duration
	// Deadline is the request's effective deadline (zero when none).
	Deadline time.Duration
}

func (e *OverloadError) Error() string {
	if e.Reason == OverloadProjectedWait {
		return fmt.Sprintf("serve%s: overloaded: projected queue wait %v exceeds deadline %v (queue %d/%d)",
			tenantTag(e.Tenant), e.ProjectedWait, e.Deadline, e.QueueLen, e.QueueCap)
	}
	return fmt.Sprintf("serve%s: overloaded: admission queue full (%d/%d)", tenantTag(e.Tenant), e.QueueLen, e.QueueCap)
}

// DeadlineError reports a request shed after admission: its deadline
// expired while it waited in the queue, so it was dropped without
// occupying an execution slot and had no effect.
type DeadlineError struct {
	// Tenant is the id of the tenant that shed the request (empty on a
	// single-tenant server).
	Tenant string
	// Waited is how long the request sat in the queue before being shed.
	Waited time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("serve%s: deadline expired after waiting %v in queue; request shed unexecuted", tenantTag(e.Tenant), e.Waited)
}

// ClosedError reports a request rejected because the server is no
// longer accepting work.
type ClosedError struct {
	// Tenant is the id of the tenant whose server refused the request
	// (empty on a single-tenant server).
	Tenant string
	// State is the server state that refused the request: "draining",
	// "closed", or "failed".
	State string
	// Cause carries the failure that wedged the server (state "failed"
	// only).
	Cause error
}

func (e *ClosedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("serve%s: server %s: %v", tenantTag(e.Tenant), e.State, e.Cause)
	}
	return fmt.Sprintf("serve%s: server %s", tenantTag(e.Tenant), e.State)
}

// Unwrap exposes the wedging cause for errors.Is / errors.As.
func (e *ClosedError) Unwrap() error { return e.Cause }

// tenantTag renders the tenant id fragment of an error message:
// "[tenant <id>]" when set, empty otherwise, so single-tenant messages
// are byte-identical to the pre-tenancy era.
func tenantTag(tenant string) string {
	if tenant == "" {
		return ""
	}
	return "[tenant " + tenant + "]"
}
