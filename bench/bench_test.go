package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func streamText(s *stream) string {
	var sb strings.Builder
	for _, rq := range s.preload {
		fmt.Fprintf(&sb, "P %d %s %v\n", rq.tenant, rq.sql, rq.want)
	}
	for c, list := range s.clients {
		for _, rq := range list {
			fmt.Fprintf(&sb, "%d %d %s %v\n", c, rq.tenant, rq.sql, rq.want)
		}
	}
	fmt.Fprintf(&sb, "%v\n", s.final)
	return sb.String()
}

// The generator is byte-deterministic per seed and differs across seeds.
func TestGeneratorDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) *stream{
		"bank":    func(seed int64) *stream { return bankStream(seed, nClients, 300, 1) },
		"tenants": func(seed int64) *stream { return bankStream(seed, nClients, 300, 10) },
		"cascade": func(seed int64) *stream { return cascadeStream(seed, nClients, 100) },
		"cold":    func(seed int64) *stream { return serveCold.stream(seed, 50) },
	}
	for name, gen := range gens {
		a, b, other := streamText(gen(1)), streamText(gen(1)), streamText(gen(2))
		if a != b {
			t.Errorf("%s: two generations with seed 1 differ", name)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", name)
		}
	}
}

// serve_cold's requests are byte-identical to serve_hot's; only the
// set-up load differs.
func TestColdStreamIsHotStream(t *testing.T) {
	hot, cold := serveHot.stream(7, 200), serveCold.stream(7, 200)
	if !reflect.DeepEqual(hot.clients, cold.clients) {
		t.Error("serve_cold's request lists differ from serve_hot's")
	}
	if len(cold.preload) != len(hot.preload)+serveCold.archiveRows/archiveBatch {
		t.Errorf("serve_cold preload has %d requests, serve_hot %d", len(cold.preload), len(hot.preload))
	}
}

// The bank model's arithmetic, re-derived from nothing but the SQL text
// the generator emitted.
func TestBankModelArithmetic(t *testing.T) {
	st := bankStream(3, nClients, 2000, 1)
	balance := map[int64]float64{}
	holds := map[int64]int{}
	insertRe := regexp.MustCompile(`\((\d+), 'o\d+', ([0-9.]+)\)`)
	updates, overdrafts, inserts, deletes := 0, 0, 0, 0
	apply := func(rq request) {
		switch {
		case strings.HasPrefix(rq.sql, "insert into account"):
			for _, m := range insertRe.FindAllStringSubmatch(rq.sql, -1) {
				var id int64
				var bal float64
				fmt.Sscan(m[1], &id)
				fmt.Sscan(m[2], &bal)
				balance[id] = bal
			}
			inserts++
		case strings.HasPrefix(rq.sql, "update account"):
			var op string
			var amt float64
			var id int64
			if _, err := fmt.Sscanf(rq.sql, "update account set balance = balance %s %f where id = %d", &op, &amt, &id); err != nil {
				t.Fatalf("unparsed update %q: %v", rq.sql, err)
			}
			if op == "-" {
				amt = -amt
			}
			balance[id] += amt
			fired := 0
			if balance[id] < 0 {
				fired = 1
				holds[id]++
				overdrafts++
			}
			if rq.want.fired != fired || rq.want.considered != 1 {
				t.Fatalf("%q: model expects fired=%d, arithmetic says %d", rq.sql, rq.want.fired, fired)
			}
			updates++
		case strings.HasPrefix(rq.sql, "delete from account"):
			var id, id2 int64
			if _, err := fmt.Sscanf(rq.sql, "delete from account where id = %d; delete from audit where id = %d", &id, &id2); err != nil || id != id2 {
				t.Fatalf("unparsed delete %q: %v", rq.sql, err)
			}
			if _, ok := balance[id]; !ok {
				t.Fatalf("%q deletes an account that is not live", rq.sql)
			}
			delete(balance, id)
			delete(holds, id)
			deletes++
		default:
			t.Fatalf("unexpected request %q", rq.sql)
		}
	}
	for _, rq := range st.preload {
		apply(rq)
	}
	for _, rq := range st.merged() {
		apply(rq)
	}
	want := tableRows{"account": nil, "audit": nil, "holds": nil}
	(&bankModel{balance: balance, holds: holds}).addTo(want)
	if !reflect.DeepEqual(sortRows(want), st.final[0]) {
		t.Error("the model's final rows differ from the rows re-derived from the SQL text")
	}
	total := float64(updates + inserts + deletes - len(st.preload))
	if share := float64(updates) / total; math.Abs(share-bankUpdateShare) > 0.03 {
		t.Errorf("update share %.3f, want about %.2f", share, bankUpdateShare)
	}
	if overdrafts == 0 {
		t.Error("no update overdrew an account: r_hold's action never runs")
	}
	if n := len(balance); n < nClients*(bankAccountsPerClient-1) || n > nClients*(bankAccountsPerClient+1) {
		t.Errorf("%d live accounts at the end: the row count is not steady", n)
	}
}

func TestCascadeModel(t *testing.T) {
	st := cascadeStream(5, nClients, 3*cascadeSweep)
	for c, list := range st.clients {
		for k, rq := range list {
			sweep := (k+1)%cascadeSweep == 0
			if sweep != strings.HasPrefix(rq.sql, "delete from c0") {
				t.Fatalf("client %d request %d: sweep placement", c, k)
			}
			if sweep {
				if rq.want.considered != 0 || len(rq.want.affected) != len(cascadeTables()) ||
					rq.want.affected[0] != cascadeBatch*(cascadeSweep-1) {
					t.Fatalf("client %d sweep %d expects %+v", c, k, rq.want)
				}
			} else if rq.want.considered != cascadeDepth+cascadeFanout || rq.want.fired != rq.want.considered {
				t.Fatalf("client %d insert %d expects %+v", c, k, rq.want)
			}
		}
	}
	// 3 sweeps per client and the last request is a sweep: nothing left.
	for table, rows := range st.final[0] {
		if len(rows) != 0 {
			t.Errorf("table %s should be empty after the final sweep, has %d rows", table, len(rows))
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	// Python: q = statistics.quantiles(xs, n=4); (q[2] - q[0]) / statistics.median(xs)
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}); math.Abs(got-0.9333333333333333) > 1e-12 {
		t.Errorf("spread = %v, want 0.9333...", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {40, 75}, {100, 90}, {101, 90}, {200, 95}, {1000, 99}, {10001, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A timing is divided by the mean of the two host-speed readings around
// it, and timeEach keeps every operation's place.
func TestHostScaling(t *testing.T) {
	h := hostLog{slow: []float64{1, 2, 2}}
	if got := h.scale(300, 0); got != 200 {
		t.Errorf("300 between readings 1 and 2 scales to %v, want 200", got)
	}
	if got := h.scale(300, 1); got != 150 {
		t.Errorf("300 between readings 2 and 2 scales to %v, want 150", got)
	}
	var order []int
	lat, wall := timeEach(5, func(k int) time.Duration {
		order = append(order, k)
		time.Sleep(time.Millisecond)
		return time.Duration(k+1) * time.Hour
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) || len(lat) != 5 {
		t.Fatalf("timeEach ran %v and returned %d latencies", order, len(lat))
	}
	for k := 1; k < len(lat); k++ {
		if lat[k] <= lat[k-1] {
			t.Errorf("scaled latencies out of order: %v", lat)
		}
	}
	if wall <= 0 {
		t.Errorf("wall %v", wall)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder(4)
	r.spans = []span{
		{Name: "engine.commit", Start: 0, End: 100, Parent: -1},
		{Name: "wal.journal_commit", Start: 10, End: 70, Parent: 0},
		{Name: "wal.fs_sync", Start: 20, End: 60, Parent: 1},
		{Name: "wal.journal_begin", Start: 70, End: 80, Parent: 0},
	}
	want := []time.Duration{30, 20, 40, 10}
	if got := r.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestStripUpgrades(t *testing.T) {
	in := "CONFLUENCE: guaranteed\n  refined to commute: (a, b)\n    (3) why\n    (4) why\n  refined to commute: (a, c)\n    why\nOBSERVABLE\n    refined to commute: (x, y)\n      why\n    kept\n"
	want := "CONFLUENCE: guaranteed\nOBSERVABLE\n    kept\n"
	if got := stripUpgrades(in); got != want {
		t.Errorf("stripUpgrades = %q, want %q", got, want)
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range allWorkloads() {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, ms := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check("metric", ms.Name)
		if !unitRe.MatchString(ms.Unit) {
			t.Errorf("metric %s: unit %q", ms.Name, ms.Unit)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("metric %s: better = %q", ms.Name, ms.Better)
		}
	}
	for _, ms := range endToEnd {
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", ms.Name, ms.Bound)
		}
	}
}

// BENCHMARK.json and spec.go say the same thing: every workload and
// metric named in one is in the other, with its unit, direction and
// bound.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(contractJSON(), &inCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: bash bench/run.sh -contract > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(data))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the contract requires the setup_s metric")
	}
}

// chdirRoot runs the test from the repository root, as the driver runs
// the benchmark.
func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// requireClean fails the test on any output-check miss and requires
// every metric of the pass to have been produced.
func requireClean(t *testing.T, name string, res *result, err error, specs []metricSpec, mustBeNonZero bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, msg := range res.wrong {
		t.Errorf("%s: wrong output: %s", name, msg)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d", name, res.attempted, res.failed)
	}
	known := map[string]bool{}
	for _, ms := range specs {
		known[ms.Name] = true
		v, ok := res.metrics[ms.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v", name, ms.Name, v)
		}
		if mustBeNonZero && (!ok || v == 0) {
			t.Errorf("%s: end-to-end metric %s is missing or zero", name, ms.Name)
		}
	}
	for m := range res.metrics {
		if !known[m] {
			t.Errorf("%s: emits metric %s, which spec.go does not declare", name, m)
		}
	}
}

// A smoke run of every workload at 1 % of its op counts, both passes,
// every output check on.
func TestSmokeEveryWorkload(t *testing.T) {
	chdirRoot(t)
	for _, sp := range servedSpecs {
		small := *sp
		small.perClient = max(sp.perClient/100, 2*cascadeSweep)
		small.checkpointEvery = min(sp.checkpointEvery, 5)
		res, err := small.runUntraced(1, 0)
		requireClean(t, sp.name, res, err, endToEnd, true)
		small.perClient *= tracedShare
		res, err = small.runTraced(1, 0)
		requireClean(t, sp.name+" traced", res, err, perLayer, false)
		if sp.topo == topoFlat {
			if w, s := res.metrics["wal.writes_per_req"], res.metrics["wal.fsyncs_per_req"]; w != 3 || s != 2 {
				t.Errorf("%s: %v writes and %v fsyncs per request, want exactly 3 and 2", sp.name, w, s)
			}
		}
		if _, err := os.Stat("bench/out/trace-" + sp.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", sp.name, err)
		}
	}
	rec := recoverSpec{committed: defaultRecover.committed / 100, perRound: 2}
	res, err := rec.run(1, 0, false)
	requireClean(t, "wal_recover", res, err, endToEnd, true)
	res, err = rec.run(1, 0, true)
	requireClean(t, "wal_recover traced", res, err, perLayer, false)

	an := analyzeSpec{sizes: []int{96}, invariant: []int{48}}
	res, err = an.run(1, 0, false)
	requireClean(t, "analyze", res, err, endToEnd, true)
	res, err = an.run(2, 0, true)
	requireClean(t, "analyze traced", res, err, perLayer, false)
}

// The exact-count per-layer metrics repeat bit for bit.
func TestExactCountsRepeat(t *testing.T) {
	chdirRoot(t)
	small := *serveHot
	small.perClient = 100
	exact := []string{"engine.considered_per_req", "engine.fired_per_req", "storage.mutations_per_req",
		"storage.rows", "storage.tables", "wal.writes_per_req", "wal.fsyncs_per_req", "wal.bytes_per_req", "wal.snapshot_bytes"}
	a, err := small.runTraced(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := small.runTraced(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exact {
		if a.metrics[name] != b.metrics[name] || a.metrics[name] == 0 {
			t.Errorf("%s: %v then %v", name, a.metrics[name], b.metrics[name])
		}
	}
}
