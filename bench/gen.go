package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The generator is the only consumer of -seed. It produces request
// streams (SQL text) together with an arithmetic model of what the
// rule system must answer, so outputs are checked against something
// that shares no code with the program under test.

// expect is the model's prediction for one response.
type expect struct {
	affected   []int // per user statement, in order
	considered int
	fired      int
}

// request is one generated client transaction.
type request struct {
	tenant int // index into the workload's tenant list; 0 when single
	sql    string
	want   expect
}

// tableRows is a table's expected contents: one rendered line per row,
// sorted, so comparison is by multiset.
type tableRows map[string][]string

// stream is everything one round sends: a set-up load, then one list of
// requests per client. Clients touch disjoint ids, so each client's
// responses are predictable whatever the interleaving.
type stream struct {
	preload []request
	clients [][]request
	// final[tenant] is the model's state after every request, as the
	// rows each check query must return.
	final []tableRows
	// checks are the queries that read final back, in table order.
	checks []checkQuery
}

// checkQuery reads one table back; cols are the columns it projects,
// so a recovered table can be rendered the same way.
type checkQuery struct {
	table string
	sql   string
	cols  []int
}

// merged interleaves the clients' lists round-robin: the single-client
// legs replay the same requests as the two-client pass.
func (s *stream) merged() []request {
	var out []request
	for i := 0; ; i++ {
		took := false
		for _, c := range s.clients {
			if i < len(c) {
				out = append(out, c[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

func (s *stream) total() int {
	n := 0
	for _, c := range s.clients {
		n += len(c)
	}
	return n
}

// ---- bank ----

const (
	bankAccountsPerClient = 100
	bankOpenBalance       = 100.0
	// Mix: 70 % balance updates, 15 % inserts, 15 % deletes.
	bankUpdateShare = 0.70
	bankInsertShare = 0.15
	// One update in eight overdraws the account, which is what makes
	// r_hold's condition true and its action run.
	bankOverdraftShare = 0.125
)

var bankChecks = []checkQuery{
	{"account", "select id, balance from account", []int{0, 2}},
	{"audit", "select id from audit", []int{0}},
	{"holds", "select acct from holds", []int{1}},
}

// bankModel is one client's share of one bank database.
type bankModel struct {
	balance map[int64]float64
	holds   map[int64]int
	live    []int64 // insertion-ordered ids, for seeded picks
	nextID  int64
}

func fmtAmount(f float64) string { return strconv.FormatFloat(f, 'f', 1, 64) }

// bankClient generates one client's requests against one tenant.
type bankClient struct {
	rng    *rand.Rand
	m      *bankModel
	tenant int
}

func newBankClient(seed int64, client, tenant int) *bankClient {
	base := int64(client)*1_000_000 + 1
	m := &bankModel{balance: map[int64]float64{}, holds: map[int64]int{}, nextID: base}
	return &bankClient{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(tenant)*1299709)),
		m:      m,
		tenant: tenant,
	}
}

// preload opens the client's accounts in one statement; r_audit fires
// once over the whole inserted set.
func (c *bankClient) preload() request {
	var sb strings.Builder
	sb.WriteString("insert into account values ")
	for i := 0; i < bankAccountsPerClient; i++ {
		id := c.open()
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'o%d', %s)", id, id, fmtAmount(bankOpenBalance))
	}
	return request{tenant: c.tenant, sql: sb.String(),
		want: expect{affected: []int{bankAccountsPerClient}, considered: 1, fired: 1}}
}

func (c *bankClient) open() int64 {
	id := c.m.nextID
	c.m.nextID++
	c.m.balance[id] = bankOpenBalance
	c.m.live = append(c.m.live, id)
	return id
}

func (c *bankClient) next() request {
	m := c.m
	p := c.rng.Float64()
	if p >= bankUpdateShare {
		// Churn pulls the live count back to where it started, so the
		// row count stays within one account per client of its start.
		switch n := len(m.live); {
		case n < bankAccountsPerClient:
			p = bankUpdateShare // insert
		case n > bankAccountsPerClient:
			p = 1 // delete
		}
	}
	switch {
	case p < bankUpdateShare:
		return c.update()
	case p < bankUpdateShare+bankInsertShare:
		id := c.open()
		return request{tenant: c.tenant,
			sql:  fmt.Sprintf("insert into account values (%d, 'o%d', %s)", id, id, fmtAmount(bankOpenBalance)),
			want: expect{affected: []int{1}, considered: 1, fired: 1}}
	default:
		i := c.rng.Intn(len(m.live))
		id := m.live[i]
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		delete(m.balance, id)
		delete(m.holds, id) // r_purge
		return request{tenant: c.tenant,
			sql:  fmt.Sprintf("delete from account where id = %d; delete from audit where id = %d", id, id),
			want: expect{affected: []int{1, 1}, considered: 1, fired: 1}}
	}
}

// update moves one balance. Amounts are multiples of 0.5 far below
// 2^52, so the model's float arithmetic is exact.
func (c *bankClient) update() request {
	m := c.m
	id := m.live[c.rng.Intn(len(m.live))]
	bal := m.balance[id]
	var delta float64
	switch {
	case bal < 0:
		delta = bankOpenBalance - bal // back to the opening balance
	case c.rng.Float64() < bankOverdraftShare:
		delta = -(bal + 10) // overdraw to -10: r_hold fires
	default:
		step := 5 * float64(1+c.rng.Intn(10))
		if c.rng.Intn(2) == 0 && bal-step >= 0 {
			delta = -step
		} else {
			delta = step
		}
	}
	bal += delta
	m.balance[id] = bal
	fired := 0
	if bal < 0 {
		fired = 1
		m.holds[id]++
	}
	op, amt := "+", delta
	if delta < 0 {
		op, amt = "-", -delta
	}
	return request{tenant: c.tenant,
		sql:  fmt.Sprintf("update account set balance = balance %s %s where id = %d", op, fmtAmount(amt), id),
		want: expect{affected: []int{1}, considered: 1, fired: fired}}
}

func (m *bankModel) addTo(rows tableRows) {
	for id, bal := range m.balance {
		rows["account"] = append(rows["account"], fmt.Sprintf("%d|%s", id, fmtValue(bal)))
		rows["audit"] = append(rows["audit"], strconv.FormatInt(id, 10))
	}
	for id, n := range m.holds {
		for i := 0; i < n; i++ {
			rows["holds"] = append(rows["holds"], strconv.FormatInt(id, 10))
		}
	}
}

// fmtValue renders a float the way row comparison renders a storage
// float (shortest round-trip form).
func fmtValue(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func sortRows(rows tableRows) tableRows {
	for _, r := range rows {
		sort.Strings(r)
	}
	return rows
}

// bankStream generates nClients request lists of perClient requests
// each, spread round-robin over nTenants independent bank databases.
func bankStream(seed int64, clients, perClient, nTenants int) *stream {
	s := &stream{clients: make([][]request, clients), checks: bankChecks}
	gens := make([][]*bankClient, clients) // [client][tenant]
	for c := range gens {
		gens[c] = make([]*bankClient, nTenants)
		for t := range gens[c] {
			gens[c][t] = newBankClient(seed, c, t)
			s.preload = append(s.preload, gens[c][t].preload())
		}
	}
	for c := range gens {
		s.clients[c] = make([]request, perClient)
		for k := range s.clients[c] {
			s.clients[c][k] = gens[c][k%nTenants].next()
		}
	}
	s.final = make([]tableRows, nTenants)
	for t := range s.final {
		rows := tableRows{"account": nil, "audit": nil, "holds": nil}
		for c := range gens {
			gens[c][t].m.addTo(rows)
		}
		s.final[t] = sortRows(rows)
	}
	return s
}

// ---- cascade ----

const (
	cascadeDepth   = 24 // chain rules c0 -> c1 -> ... -> c24
	cascadeFanout  = 8  // unordered rules on the chain head
	cascadeBatch   = 4  // rows per insert request
	cascadeSweep   = 8  // every n-th request of a client sweeps its rows
	cascadeIdle    = 10 // idle bank clusters: rules present, never triggered
	cascadeIDRange = 1_000_000_000
)

func cascadeTables() []string {
	var ts []string
	for i := 0; i <= cascadeDepth; i++ {
		ts = append(ts, fmt.Sprintf("c%d", i))
	}
	for j := 0; j < cascadeFanout; j++ {
		ts = append(ts, fmt.Sprintf("f%d", j))
	}
	return ts
}

// cascadeSources renders the schema and rule text of the cascade
// system: the idle clusters are the bank rules renamed, the chain
// copies the inserted set one table down per rule, and the fan-out
// rules all trigger on the chain head with no ordering between them.
func cascadeSources() (schemaSrc, rulesSrc string) {
	var sch, rl strings.Builder
	for i := 0; i < cascadeIdle; i++ {
		fmt.Fprintf(&sch, "table account%d (id int, owner string, balance float)\n", i)
		fmt.Fprintf(&sch, "table audit%d (id int, owner string)\n", i)
		fmt.Fprintf(&sch, "table holds%d (id int, acct int)\n", i)
		fmt.Fprintf(&rl, "create rule r_audit%d on account%d\nwhen inserted\nthen insert into audit%d select id, owner from inserted\n\n", i, i, i)
		fmt.Fprintf(&rl, "create rule r_hold%d on account%d\nwhen updated(balance)\nif exists (select 1 from new-updated nu where nu.balance < 0)\nthen insert into holds%d select nu.id, nu.id from new-updated nu where nu.balance < 0\n\n", i, i, i)
		fmt.Fprintf(&rl, "create rule r_purge%d on account%d\nwhen deleted\nthen delete from holds%d where acct in (select id from deleted)\n\n", i, i, i)
	}
	for _, t := range cascadeTables() {
		fmt.Fprintf(&sch, "table %s (v int)\n", t)
	}
	for i := 0; i < cascadeDepth; i++ {
		fmt.Fprintf(&rl, "create rule chain%02d on c%d\nwhen inserted\nif exists (select 1 from inserted where v >= 0)\nthen insert into c%d select v from inserted\n\n", i, i, i+1)
	}
	for j := 0; j < cascadeFanout; j++ {
		fmt.Fprintf(&rl, "create rule fan%d on c0\nwhen inserted\nthen insert into f%d select v from inserted where v >= 0\n\n", j, j)
	}
	return sch.String(), rl.String()
}

// cascadeStream: every request inserts a batch into the chain head and
// the rules carry it through every chain and fan-out table; every
// cascadeSweep-th request deletes the client's own rows everywhere.
func cascadeStream(seed int64, clients, perClient int) *stream {
	tables := cascadeTables()
	s := &stream{clients: make([][]request, clients)}
	for _, t := range tables {
		s.checks = append(s.checks, checkQuery{t, "select v from " + t, []int{0}})
	}
	rows := tableRows{}
	for _, t := range tables {
		rows[t] = nil
	}
	for c := range s.clients {
		rng := rand.New(rand.NewSource(seed*6007 + int64(c)*15485863))
		lo := int64(c) * cascadeIDRange
		var liveVals []int64 // the client's values present in every table
		reqs := make([]request, perClient)
		for k := range reqs {
			if (k+1)%cascadeSweep == 0 {
				var sb strings.Builder
				want := expect{}
				for i, t := range tables {
					if i > 0 {
						sb.WriteString("; ")
					}
					fmt.Fprintf(&sb, "delete from %s where v >= %d and v < %d", t, lo, lo+cascadeIDRange)
					want.affected = append(want.affected, len(liveVals))
				}
				liveVals = liveVals[:0]
				reqs[k] = request{sql: sb.String(), want: want}
				continue
			}
			var sb strings.Builder
			sb.WriteString("insert into c0 values ")
			for b := 0; b < cascadeBatch; b++ {
				v := lo + rng.Int63n(cascadeIDRange)
				liveVals = append(liveVals, v)
				if b > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d)", v)
			}
			n := cascadeDepth + cascadeFanout
			reqs[k] = request{sql: sb.String(),
				want: expect{affected: []int{cascadeBatch}, considered: n, fired: n}}
		}
		s.clients[c] = reqs
		for _, v := range liveVals {
			for _, t := range tables {
				rows[t] = append(rows[t], strconv.FormatInt(v, 10))
			}
		}
	}
	s.final = []tableRows{sortRows(rows)}
	return s
}
