package activerules

import "activerules/internal/serve"

// The serving layer: a supervised, concurrent front over a durable
// session. See internal/serve for the mechanics and DESIGN.md §9 for
// the degraded-mode argument.

// Re-exported serving types.
type (
	// Server is the concurrent serving layer: admission control with
	// deadline-aware load shedding, per-request deadlines, rule
	// quarantine with degraded-mode reporting, durability-fault retry,
	// and graceful drain.
	Server = serve.Server
	// ServeConfig configures System.NewServer.
	ServeConfig = serve.Config
	// ServeRequest is one client transaction (user SQL + assertion).
	ServeRequest = serve.Request
	// ServeResponse reports a committed request.
	ServeResponse = serve.Response
	// OverloadError reports load shedding at admission.
	OverloadError = serve.OverloadError
	// DeadlineError reports a request shed after its deadline expired
	// in the queue, without occupying an execution slot.
	DeadlineError = serve.DeadlineError
	// ServerClosedError reports a request rejected because the server
	// is draining, closed, or failed.
	ServerClosedError = serve.ClosedError
)

// Server states, re-exported (ServerClosedError.State).
const (
	ServerRunning  = serve.StateRunning
	ServerDraining = serve.StateDraining
	ServerClosed   = serve.StateClosed
)

// NewServer opens (or recovers) the write-ahead log directory dir and
// starts a serving layer over this system's rules. The server owns the
// durable session: Close (or Shutdown) drains in-flight work, writes a
// final checkpoint, and releases the log.
func (s *System) NewServer(dir string, cfg ServeConfig) (*Server, error) {
	return serve.New(s.schema, s.defs, dir, cfg)
}
