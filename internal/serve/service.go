package serve

import (
	"context"
	"errors"
)

// Service is what a wire front end (cmd/ruled) serves: one rule system,
// however it is deployed. *Server, shard.Group, cluster.Node,
// replica.Follower and tenant.Manager's per-tenant and fleet services
// satisfy it. The views are each layer's own struct (or a composite
// nesting its children's), rendered with encoding/json: the layer that
// owns a counter owns its wire name.
type Service interface {
	Submit(ctx context.Context, req Request) (*Response, error)
	Checkpoint(ctx context.Context) error
	HealthView() any
	StatsView() any
}

// Wire codes more than one layer answers with; every other code is
// written once, in the Code method of the error that owns it.
const (
	CodeClosed     = "closed"      // ClosedError, tenant.ErrManagerClosed
	CodeBadRequest = "bad-request" // cmd/ruled's decoder, tenant.IDError and ErrTenantRequired
)

// Coded returns a sentinel error carrying a wire code, for the failures
// that need no fields (replica.ErrReadOnly, tenant.ErrManagerClosed).
func Coded(code, msg string) error { return &codedError{code, msg} }

type codedError struct{ code, msg string }

func (e *codedError) Error() string { return e.msg }
func (e *codedError) Code() string  { return e.code }

// CodeOf returns the stable wire code of err: that of the outermost
// error in its chain with a Code() string method — a layer that wraps a
// failure in its own typed error has decided what the client should do
// about it — or "error" when none has one (a SQL parse error, say).
func CodeOf(err error) string {
	var coded interface{ Code() string }
	if errors.As(err, &coded) {
		return coded.Code()
	}
	return "error"
}
