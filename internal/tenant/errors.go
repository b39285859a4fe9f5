package tenant

import (
	"fmt"
	"strings"

	"activerules/internal/analysis"
	"activerules/internal/serve"
)

// The tenancy failure taxonomy, layered over the serving layer's
// (internal/serve/errors.go). Every manager operation fails with one
// of:
//
//   - *NotFoundError — the tenant id names no resident tenant (and, for
//     Load, no manifest on disk either).
//   - *ExistsError — Create found the id already taken, resident or
//     detached on disk.
//   - *IDError — the tenant id is not a valid identifier (ids are path
//     components; hostile ids must never escape the tenants root).
//   - *QuotaError — per-tenant admission fencing: the tenant's
//     outstanding-request quota (queue-slot share + in-flight cap,
//     enforced BEFORE the tenant's queue) is exhausted, or the manager's
//     resident-tenant cap is. Deliberately distinct from the serving
//     layer's *OverloadError so dashboards can tell "this tenant is
//     flooding" (quota) from "this tenant's own queue is full"
//     (overload).
//   - *SwapRejectedError — analyzer-gated hot swap: the candidate rule
//     set's Guaranteed termination or confluence verdict regresses
//     versus the live set, and the manager's policy is to reject.
//   - ErrManagerClosed — the manager has shut down.
//   - ErrTenantRequired, ErrSingleTenant — a request routed to a fleet
//     without naming a tenant, or naming one to a server that has none.
//   - the serving-layer taxonomy, passed through for admitted requests.

// Each error names its own stable wire code (serve.CodeOf); "quota" is
// deliberately not the server-level "overload". codeNoTenant answers
// any request whose tenant cannot be resolved.
const codeNoTenant = "no-tenant"

func (e *NotFoundError) Code() string     { return codeNoTenant }
func (e *ExistsError) Code() string       { return "tenant-exists" }
func (e *IDError) Code() string           { return serve.CodeBadRequest }
func (e *QuotaError) Code() string        { return "quota" }
func (e *SwapRejectedError) Code() string { return "swap-rejected" }

var (
	// ErrManagerClosed reports an operation on a manager after Shutdown.
	ErrManagerClosed = serve.Coded(serve.CodeClosed, "tenant: manager is shut down")
	// ErrTenantRequired rejects a write sent to the fleet (Manager.Fleet)
	// rather than to one of its tenants.
	ErrTenantRequired = serve.Coded(serve.CodeBadRequest, `multi-tenant mode: op requires a "tenant" field`)
	// ErrSingleTenant is a front end's answer to a tenant-routed request
	// when it serves one system and no Manager.
	ErrSingleTenant = serve.Coded(codeNoTenant, "this server is single-tenant; restart with -tenants to serve tenants")
)

// NotFoundError reports an operation on an unknown tenant.
type NotFoundError struct {
	Tenant string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("tenant %q: not found", e.Tenant)
}

// ExistsError reports a Create colliding with an existing tenant.
type ExistsError struct {
	Tenant string
	// Detached reports that the collision is with an on-disk tenant that
	// is not resident (droppped without destroy, or never loaded);
	// tenant-load attaches it.
	Detached bool
}

func (e *ExistsError) Error() string {
	if e.Detached {
		return fmt.Sprintf("tenant %q: already exists on disk (detached; load it instead)", e.Tenant)
	}
	return fmt.Sprintf("tenant %q: already exists", e.Tenant)
}

// IDError reports an invalid tenant id.
type IDError struct {
	Tenant string
}

func (e *IDError) Error() string {
	return fmt.Sprintf("tenant id %q: invalid (want %s)", e.Tenant, idPattern)
}

// Quota kinds.
const (
	// QuotaSlots: the tenant's outstanding-request quota is exhausted.
	QuotaSlots = "slots"
	// QuotaTenants: the manager's resident-tenant cap is exhausted.
	QuotaTenants = "tenants"
)

// QuotaError reports per-tenant admission fencing: the request (or
// tenant creation) was shed before touching any queue or engine. It is
// a distinct type — and a distinct wire code ("quota") — from the
// serving layer's *OverloadError, so one flooding tenant's shedding is
// never mistaken for global overload.
type QuotaError struct {
	Tenant string
	// Kind is QuotaSlots or QuotaTenants.
	Kind string
	// Used and Limit describe the exhausted quota.
	Used, Limit int
}

func (e *QuotaError) Error() string {
	if e.Kind == QuotaTenants {
		return fmt.Sprintf("tenant %q: resident-tenant quota exhausted (%d/%d tenants)", e.Tenant, e.Used, e.Limit)
	}
	return fmt.Sprintf("tenant %q: admission quota exhausted (%d/%d outstanding requests)", e.Tenant, e.Used, e.Limit)
}

// SwapRejectedError reports an analyzer-gated hot swap that was refused
// because it would regress a Guaranteed verdict: the live rule set
// keeps serving, the candidate never ran. It names exactly the verdicts
// lost.
type SwapRejectedError struct {
	Tenant string
	// Lost names the regressed verdicts, in report order: "termination",
	// "confluence".
	Lost []string
	// WasTermination/Termination are the live and candidate tiered
	// termination statuses.
	WasTermination, Termination analysis.TerminationStatus
	// WasConfluent/Confluent are the live and candidate confluence
	// verdicts.
	WasConfluent, Confluent bool
}

func (e *SwapRejectedError) Error() string {
	return fmt.Sprintf("tenant %q: swap rejected: candidate rule set loses guaranteed %s (termination %v -> %v, confluence %v -> %v)",
		e.Tenant, strings.Join(e.Lost, " and "), e.WasTermination, e.Termination, e.WasConfluent, e.Confluent)
}
