// Command ruled is a long-running rule server: it recovers a durable
// session from a write-ahead log and serves line-delimited JSON
// requests over stdin/stdout or TCP, with admission control, per-
// request deadlines, rule quarantine (with degraded-mode reporting via
// the paper's §7 Sig(T') analysis), and graceful drain.
//
// Usage:
//
//	ruled -schema schema.sdl -rules rules.srl -wal dir [flags]
//	ruled -tenants root [flags]
//
// Flags:
//
//	-listen addr     serve TCP on addr (e.g. 127.0.0.1:7070); when
//	                 empty (the default), serve stdin/stdout
//	-tenants root    multi-tenant mode: host many independent rule
//	                 systems under one root directory, each with its own
//	                 schema, rules, and WAL (tenants/<id>/wal), restored
//	                 on startup from their manifests; excludes -shards,
//	                 -replicate, -follow, and -cluster, and makes
//	                 -schema/-rules/-wal unnecessary (tenants are
//	                 created over the wire)
//	-tenant-slots n  per-tenant outstanding-request quota (0 = 8),
//	                 enforced before the tenant's queue; shed requests
//	                 get code "quota", distinct from "overload"
//	-quarantine-on-regress
//	                 admit verdict-regressing tenant-swap ops in
//	                 degraded mode (with a §7 Sig(T') report) instead of
//	                 rejecting them with code "swap-rejected"
//	-shards n        run one engine+WAL per analysis-proven shard
//	                 (Section 7: disjoint Sig(T') groups), coalesced to
//	                 at most n shards, routing each assert to the shard
//	                 owning its tables; cross-shard requests are
//	                 rejected with code "shard". 0 (default) serves one
//	                 unsharded engine
//	-replicate addr  also stream the WAL to follower replicas
//	                 connecting on addr (unsharded mode only)
//	-follow addr     run as a read-only follower replicating from the
//	                 ruled -replicate source at addr; serves health and
//	                 stats (including replication lag: generation, bytes
//	                 behind the leader frontier, time since last frame),
//	                 rejects asserts with code "read-only"
//	-cluster         automatic-failover mode: run one member of a
//	                 leader/follower pair that elects its own role,
//	                 fences deposed leaders durably (WAL epochs), and
//	                 promotes on lease expiry; requires -replicate (this
//	                 node's replication listen address) and -peer;
//	                 excludes -shards, -follow, and -tenants. Asserts
//	                 sent to the non-leader get code "redirect" with the
//	                 leader's advertised address; commits the follower
//	                 never acknowledged get code "unacked"
//	-peer addr       the cluster peer's replication address
//	-advertise addr  this node's client address, carried in cluster
//	                 lease frames for redirects (default: -listen)
//	-bootstrap       cluster: this node self-elects on a completely
//	                 fresh start (exactly one member sets it)
//	-lease d         cluster leadership lease duration (0 = 1s)
//	-queue-depth n   admission queue bound (default 64)
//	-deadline d      default per-request deadline (0 = none); requests
//	                 may override with "deadline_ms"
//	-drain d         graceful-drain bound on shutdown (default 5s)
//	-quarantine n    consecutive attributed faults that quarantine a
//	                 rule (default 3); 0 keeps the default
//	-no-probe        never readmit quarantined rules (no half-open
//	                 probing)
//	-maxsteps n      rule-consideration budget per request
//	-strategy s      first | last | random:<seed>
//	-fsync policy    commit (default) fsyncs before every reply; never
//	                 leaves fsync to the OS
//
// Protocol: one JSON object per line in, one per line out.
//
//	{"op":"assert","sql":"insert into t values (1)","deadline_ms":100}
//	{"op":"health"}   {"op":"stats"}   {"op":"checkpoint"}   {"op":"shutdown"}
//
// In multi-tenant mode every op carries a "tenant" field routing it to
// that tenant's server, and five lifecycle ops manage the fleet:
//
//	{"op":"tenant-create","tenant":"acme","schema":"...","rules":"..."}
//	{"op":"tenant-load","tenant":"acme"}
//	{"op":"tenant-swap","tenant":"acme","rules":"..."}
//	{"op":"tenant-drop","tenant":"acme","destroy":true}
//	{"op":"tenant-stats"}            (fleet aggregate + analysis cache)
//	{"op":"tenant-stats","tenant":"acme"}   (same as {"op":"stats",...})
//
// Every response carries "ok"; failures add "error" and a stable
// "code": overload | deadline | closed | exec | livelock | maxsteps |
// cancelled | durability | shard | read-only | redirect | unacked |
// quota | swap-rejected | no-tenant | tenant-exists | bad-request, or
// "error" for a failure no layer has coded (a SQL parse error, say).
// Each code is named by the error type that owns it (its Code method);
// DESIGN.md §15 lists them. A "redirect" body also carries "leader":
// the address to resend to. A follower's "stats" is its "health": its
// position and lag are all it counts.
//
// Exit status:
//
//	0  clean shutdown (signal, EOF, or shutdown op; drain completed)
//	2  usage or load errors, or an internal error
//	7  the -wal directory is unrecoverable
//	8  the drain deadline expired before in-flight work completed
//	9  replication failure (-replicate or -follow could not start)
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"activerules"
	"activerules/internal/serve"
	"activerules/internal/storage"
	"activerules/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	// Containment: a hostile rule set or request stream must produce a
	// diagnostic and a sane exit code, never a crash.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "ruled: internal error: panic: %v\n", p)
			code = 2
		}
	}()
	fs := flag.NewFlagSet("ruled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaPath := fs.String("schema", "", "schema definition file (required)")
	rulesPath := fs.String("rules", "", "rule definition file (required)")
	walDir := fs.String("wal", "", "write-ahead log directory (required; recovered on start)")
	listen := fs.String("listen", "", "TCP listen address (empty = stdin/stdout)")
	tenants := fs.String("tenants", "", "multi-tenant root directory (excludes -shards/-replicate/-follow/-cluster)")
	tenantSlots := fs.Int("tenant-slots", 0, "per-tenant outstanding-request quota (0 = 8)")
	quarOnRegress := fs.Bool("quarantine-on-regress", false, "admit verdict-regressing swaps in degraded mode")
	shards := fs.Int("shards", 0, "engines: one per analysis-proven shard, at most n (0 = unsharded)")
	replicate := fs.String("replicate", "", "stream the WAL to followers on this address (unsharded only)")
	follow := fs.String("follow", "", "run as a read-only follower of the source at this address")
	clusterMode := fs.Bool("cluster", false, "automatic-failover pair member (requires -replicate and -peer)")
	peer := fs.String("peer", "", "the cluster peer's replication address")
	advertise := fs.String("advertise", "", "client address carried in cluster lease frames (default: -listen)")
	bootstrap := fs.Bool("bootstrap", false, "cluster: self-elect on a completely fresh start")
	lease := fs.Duration("lease", 0, "cluster leadership lease duration (0 = 1s)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue bound (0 = 64)")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-drain bound on shutdown")
	quarantine := fs.Int("quarantine", 0, "faults that quarantine a rule (0 = 3)")
	noProbe := fs.Bool("no-probe", false, "never readmit quarantined rules")
	maxSteps := fs.Int("maxsteps", 10000, "rule consideration budget per request")
	strategy := fs.String("strategy", "first", "first | last | random:<seed>")
	fsync := fs.String("fsync", "commit", "commit | never")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tenants == "" && (*schemaPath == "" || *rulesPath == "" || *walDir == "") {
		fmt.Fprintln(stderr, "ruled: -schema, -rules, and -wal are required (or -tenants for multi-tenant mode)")
		fs.Usage()
		return 2
	}

	var sys *activerules.System
	if *tenants == "" {
		var err error
		sys, err = activerules.LoadFiles(*schemaPath, *rulesPath)
		if err != nil {
			fmt.Fprintln(stderr, "ruled:", err)
			return 2
		}
	}
	strat, err := activerules.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(stderr, "ruled:", err)
		return 2
	}
	policy, err := activerules.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(stderr, "ruled:", err)
		return 2
	}

	cfg := activerules.ServeConfig{
		WAL:                 activerules.WALOptions{Sync: policy},
		Engine:              activerules.EngineOptions{MaxSteps: *maxSteps, Strategy: strat},
		QueueDepth:          *queueDepth,
		DefaultDeadline:     *deadline,
		DrainTimeout:        *drain,
		QuarantineThreshold: *quarantine,
		DisableProbing:      *noProbe,
	}

	// fail reports a startup error: an unrecoverable log is exit 7
	// whatever the topology, anything else the topology's own code.
	fail := func(err error, what string, code int) int {
		if errors.Is(err, activerules.ErrUnrecoverableLog) {
			what, code = "ruled: unrecoverable write-ahead log:", 7
		}
		fmt.Fprintln(stderr, what, err)
		return code
	}

	var f front
	var shutdown func(context.Context) error
	switch {
	case *tenants != "":
		if *shards > 0 || *replicate != "" || *follow != "" || *clusterMode {
			fmt.Fprintln(stderr, "ruled: -tenants excludes -shards, -replicate, -follow, and -cluster")
			return 2
		}
		m, err := activerules.OpenTenants(*tenants, activerules.TenantConfig{
			Serve:               cfg,
			TenantSlots:         *tenantSlots,
			QuarantineOnRegress: *quarOnRegress,
		})
		if err != nil {
			return fail(err, "ruled:", 2)
		}
		fmt.Fprintf(stdout, "ruled: %d tenant(s)\n", len(m.Tenants()))
		f = front{root: m.Fleet(), fleet: m}
		shutdown = m.Shutdown
	case *clusterMode:
		if *shards > 0 || *follow != "" {
			fmt.Fprintln(stderr, "ruled: -cluster excludes -shards and -follow")
			return 2
		}
		if *replicate == "" || *peer == "" {
			fmt.Fprintln(stderr, "ruled: -cluster requires -replicate (this node's replication listen address) and -peer")
			return 2
		}
		adv := *advertise
		if adv == "" {
			adv = *listen
		}
		peerAddr := *peer
		node, err := sys.NewClusterNode(activerules.ClusterConfig{
			Dir:       *walDir,
			Serve:     cfg,
			ReplAddr:  *replicate,
			Peer:      func() string { return peerAddr },
			Advertise: adv,
			Bootstrap: *bootstrap,
			Lease:     *lease,
		})
		if err != nil {
			return fail(err, "ruled: cluster:", 9)
		}
		fmt.Fprintf(stdout, "ruled: cluster member on %s (peer %s)\n", node.ReplAddr(), peerAddr)
		f.root = node
		shutdown = func(context.Context) error { return node.Close() }
	case *follow != "":
		if *shards > 0 || *replicate != "" {
			fmt.Fprintln(stderr, "ruled: -follow excludes -shards and -replicate")
			return 2
		}
		fol, err := sys.NewFollower(*walDir, *follow, activerules.FollowerConfig{})
		if err != nil {
			fmt.Fprintln(stderr, "ruled: replication:", err)
			return 9
		}
		f.root = fol
		shutdown = func(context.Context) error { return fol.Close() }
	case *shards > 0:
		if *replicate != "" {
			fmt.Fprintln(stderr, "ruled: -replicate streams one WAL; use it without -shards")
			return 2
		}
		g, err := sys.NewShardGroup(*walDir, *shards, cfg)
		if err != nil {
			return fail(err, "ruled:", 2)
		}
		fmt.Fprintf(stdout, "ruled: %d shard(s)\n", g.NumShards())
		f.root = g
		shutdown = g.Shutdown
	default:
		srv, err := sys.NewServer(*walDir, cfg)
		if err != nil {
			return fail(err, "ruled:", 2)
		}
		if *replicate != "" {
			src, err := activerules.NewReplicaSource(srv, *replicate, activerules.ReplicaSourceConfig{})
			if err != nil {
				srv.Close()
				fmt.Fprintln(stderr, "ruled: replication:", err)
				return 9
			}
			defer src.Close()
			fmt.Fprintf(stdout, "ruled: replicating on %s\n", src.Addr())
		}
		f.root = srv
		shutdown = srv.Shutdown
	}

	// stop coordinates the three shutdown triggers: a signal, input
	// EOF (stdio mode), and the shutdown op.
	var stopOnce sync.Once
	stop := make(chan struct{})
	requestStop := func() { stopOnce.Do(func() { close(stop) }) }

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case <-sigCh:
			requestStop()
		case <-stop:
		}
	}()

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, "ruled:", err)
			return 2
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "ruled: listening %s\n", ln.Addr())
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed during shutdown
				}
				go func() {
					defer conn.Close()
					f.serveLines(conn, conn, requestStop)
				}()
			}
		}()
		<-stop
		ln.Close()
	} else {
		go func() {
			f.serveLines(stdin, stdout, requestStop)
			requestStop() // EOF on stdin drains the server
		}()
		<-stop
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = shutdown(ctx)
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "ruled: drain deadline exceeded; queued work was shed")
		return 8
	}
	if err != nil {
		fmt.Fprintln(stderr, "ruled: shutdown:", err)
		if errors.Is(err, activerules.ErrUnrecoverableLog) {
			return 7
		}
		return 2
	}
	fmt.Fprintln(stdout, "ruled: drained cleanly")
	return 0
}

// wireReq is one request line.
type wireReq struct {
	Op         string `json:"op"`
	SQL        string `json:"sql,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// Tenant routes the op in multi-tenant mode; Schema/Rules/Destroy
	// are the tenant lifecycle ops' payloads.
	Tenant  string `json:"tenant,omitempty"`
	Schema  string `json:"schema,omitempty"`
	Rules   string `json:"rules,omitempty"`
	Destroy bool   `json:"destroy,omitempty"`
}

// maxLine bounds one request line.
const maxLine = 16 * 1024 * 1024

// front is the wire protocol over whatever ruled was started as: root
// serves the requests that name no tenant — the one system, or a
// fleet's roster — and fleet, in multi-tenant mode only, resolves the
// ones that do.
type front struct {
	root  serve.Service
	fleet *tenant.Manager
}

// resolve routes a request by its tenant field.
func (f front) resolve(id string) (serve.Service, error) {
	switch {
	case id == "":
		return f.root, nil
	case f.fleet == nil:
		return nil, tenant.ErrSingleTenant
	default:
		return f.fleet.Tenant(id)
	}
}

// routed answers with op's body for the service the request's tenant
// field names, or with the reason there is none.
func (f front) routed(id string, op func(serve.Service) (map[string]any, error)) map[string]any {
	svc, err := f.resolve(id)
	if err != nil {
		return errorBody(err)
	}
	body, err := op(svc)
	if err != nil {
		return errorBody(err)
	}
	return body
}

func healthOp(s serve.Service) (map[string]any, error) { return okBody(s.HealthView()) }
func statsOp(s serve.Service) (map[string]any, error)  { return okBody(s.StatsView()) }

// serveLines reads JSON lines from r and writes one JSON response line
// per request to w. Writes are serialized so concurrent asserts from
// one peer interleave whole lines.
func (f front) serveLines(r io.Reader, w io.Writer, requestStop func()) {
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	respond := func(v map[string]any) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = enc.Encode(v)
	}
	ctx := context.Background()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var req wireReq
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			respond(badRequest("bad JSON: " + err.Error()))
			continue
		}
		switch req.Op {
		case "assert":
			respond(f.routed(req.Tenant, func(s serve.Service) (map[string]any, error) {
				resp, err := s.Submit(ctx, activerules.ServeRequest{
					SQL:      req.SQL,
					Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
				})
				if err != nil {
					return nil, err
				}
				return assertBody(resp), nil
			}))
		case "health":
			respond(f.routed(req.Tenant, healthOp))
		case "stats":
			respond(f.routed(req.Tenant, statsOp))
		case "checkpoint":
			respond(f.routed(req.Tenant, func(s serve.Service) (map[string]any, error) {
				return map[string]any{"ok": true}, s.Checkpoint(ctx)
			}))
		case "tenant-create", "tenant-load", "tenant-swap", "tenant-drop", "tenant-stats":
			respond(f.tenantOp(ctx, req))
		case "shutdown":
			respond(map[string]any{"ok": true, "state": activerules.ServerDraining})
			requestStop()
		default:
			respond(badRequest(fmt.Sprintf("unknown op %q (want assert, health, stats, checkpoint, shutdown, or tenant-create/load/swap/drop/stats)", req.Op)))
		}
	}
	// The scanner stops for good at a line over its cap; say so before
	// the peer is released, rather than pass the stop off as a clean EOF.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		respond(badRequest(fmt.Sprintf("request line exceeds the %d-byte limit; closing this stream", maxLine)))
	}
}

// tenantOp answers the fleet lifecycle ops, which only a multi-tenant
// server has. tenant-stats is stats under its fleet-era name.
func (f front) tenantOp(ctx context.Context, req wireReq) map[string]any {
	switch {
	case f.fleet == nil:
		return errorBody(tenant.ErrSingleTenant)
	case req.Op == "tenant-stats":
		return f.routed(req.Tenant, statsOp)
	case req.Tenant == "":
		return errorBody(tenant.ErrTenantRequired)
	}
	var (
		sum  *activerules.RuleSetSummary
		quar *activerules.SwapQuarantineReport
		err  error
	)
	switch req.Op {
	case "tenant-create":
		sum, err = f.fleet.Create(req.Tenant, req.Schema, req.Rules)
	case "tenant-load":
		sum, err = f.fleet.Load(req.Tenant)
	case "tenant-swap":
		sum, quar, err = f.fleet.Swap(ctx, req.Tenant, req.Rules)
	case "tenant-drop":
		if err = f.fleet.Drop(req.Tenant, req.Destroy); err == nil {
			return map[string]any{"ok": true, "tenant": req.Tenant, "destroyed": req.Destroy}
		}
	}
	if err != nil {
		return errorBody(err)
	}
	body := summaryFields(req.Tenant, sum)
	if quar != nil {
		body["swap_quarantine"] = quar.String()
	}
	return body
}

// summaryFields reports a rule set's analysis verdicts in a lifecycle
// response.
func summaryFields(tenant string, sum *activerules.RuleSetSummary) map[string]any {
	return map[string]any{
		"ok":            true,
		"tenant":        tenant,
		"rule_set_hash": sum.Hash,
		"termination":   sum.Term.String(),
		"terminates":    sum.TermGuaranteed,
		"confluent":     sum.ConfGuaranteed,
		"observable":    sum.ObsGuaranteed,
	}
}

// okBody is the one renderer of a successful health or stats response:
// the layer's own view under encoding/json, plus the envelope's "ok" —
// which the views listed inside a composite (shards[], per_tenant[])
// have always repeated and a sub-view under its own key (serve,
// replication) never has. The round trip through a map only makes the
// encoder sort the keys, as it did when the bodies were built as maps,
// and UseNumber keeps the counters' digits: transcripts stay identical.
func okBody(view any) (map[string]any, error) {
	raw, err := json.Marshal(view)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var body map[string]any
	if err := dec.Decode(&body); err != nil {
		return nil, err
	}
	body["ok"] = true
	for _, v := range body {
		list, _ := v.([]any)
		for _, e := range list {
			if child, isView := e.(map[string]any); isView {
				child["ok"] = true
			}
		}
	}
	return body, nil
}

func assertBody(resp *activerules.ServeResponse) map[string]any {
	body := map[string]any{
		"ok":         true,
		"considered": resp.Considered,
		"fired":      resp.Fired,
		"rolledback": resp.RolledBack,
		"state_hash": resp.StateHash,
		"gen":        resp.Gen,
		"attempts":   resp.Attempts,
	}
	if len(resp.FiredByRule) != 0 {
		body["fired_by_rule"] = resp.FiredByRule
	}
	if len(resp.Results) != 0 {
		results := make([]map[string]any, 0, len(resp.Results))
		for _, r := range resp.Results {
			m := map[string]any{"affected": r.Affected}
			if len(r.Rows) != 0 {
				rows := make([][]any, 0, len(r.Rows))
				for _, row := range r.Rows {
					vals := make([]any, 0, len(row))
					for _, v := range row {
						vals = append(vals, jsonValue(v))
					}
					rows = append(rows, vals)
				}
				m["rows"] = rows
			}
			results = append(results, m)
		}
		body["results"] = results
	}
	return body
}

// errorBody is a failed response: the error's own wire code
// (serve.CodeOf) and text, and for a redirect the leader to resend to.
func errorBody(err error) map[string]any {
	body := map[string]any{"ok": false, "code": serve.CodeOf(err), "error": err.Error()}
	var nl *activerules.NotLeaderError
	if errors.As(err, &nl) && nl.Leader != "" {
		body["leader"] = nl.Leader
	}
	return body
}

// badRequest is the response to a line the decoder itself rejects.
func badRequest(msg string) map[string]any {
	return errorBody(serve.Coded(serve.CodeBadRequest, msg))
}

func jsonValue(v storage.Value) any {
	switch v.Kind {
	case storage.KindInt:
		return v.I
	case storage.KindFloat:
		return v.F
	case storage.KindString:
		return v.S
	case storage.KindBool:
		return v.B
	default:
		return nil
	}
}
