package activerules

import (
	"activerules/internal/tenant"
)

// Multi-tenancy: many independent rule systems (schema + rules + WAL
// directory) hosted in one process, with a shared analysis cache,
// analyzer-gated hot swaps, and per-tenant admission quotas. See
// internal/tenant for the mechanics and DESIGN.md §13 for the
// soundness argument.

// Re-exported tenancy types.
type (
	// TenantManager supervises a fleet of per-tenant servers rooted at
	// one directory, each tenant recovering from its own WAL.
	TenantManager = tenant.Manager
	// TenantConfig configures OpenTenants.
	TenantConfig = tenant.Config
	// RuleSetSummary is one shared-analysis-cache entry: the §5–§8
	// verdicts, the §7 per-table baseline, and the rendered report.
	RuleSetSummary = tenant.Summary
	// SwapQuarantineReport describes a verdict-regressing swap admitted
	// under the quarantine-on-regress policy.
	SwapQuarantineReport = tenant.QuarantineReport
	// SwapRejectedError refuses a hot swap that would lose a guaranteed
	// verdict; the rest of the tenancy failure taxonomy
	// (internal/tenant/errors.go) is told apart by its Code() string.
	SwapRejectedError = tenant.SwapRejectedError
)

// OpenTenants attaches (or initializes) a multi-tenant root directory:
// every tenant manifest found under it is started, each recovering its
// own last durable point from its own WAL.
func OpenTenants(root string, cfg TenantConfig) (*TenantManager, error) {
	return tenant.Open(root, cfg)
}
