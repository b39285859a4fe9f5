package engine_test

// The compiled-hot-path macro benchmarks and the results recorder that
// keeps the repository's BENCH_engine.json honest. The benchmarks scale
// the shipped bank and powernet examples to 1k/10k rules by replicating
// their table clusters, then measure the serving-path shape — one user
// transition plus rule processing per op against a long-lived processor
// — on the engine and on the reference rule processor. The reference
// rescans every rule per step, diffing each rule's table against its
// snapshot, so its cost grows with rule count; the engine's delta-driven
// triggering touches only the rules the transition could have
// triggered. Each benchmark has a ...Commit twin that ends the
// transaction after every op, the shape of a served request; the plain
// ones run one ever-growing transaction.
//
// A run whose -bench pattern is exactly the one BENCH_engine.json's
// commands name (`go test -bench Compiled ./internal/engine`) refreshes
// the matching section of the file (quick_1x for -benchtime=1x,
// sustained_2s otherwise); any other run, a one-off measurement or
// `-bench=.` included, leaves it as it is. TestBenchEngineRecorded trips
// if the committed file goes stale, loses a workload, or stops showing
// the promised speedup.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"activerules"
	"activerules/internal/rules"
	"activerules/internal/workload"
)

// --- scaled workloads ---------------------------------------------------

// scaledBankSources replicates the bank example's {account, audit,
// holds} cluster (3 rules each) the given number of times.
func scaledBankSources(clusters int) (schemaSrc, rulesSrc string) {
	var sb, rb strings.Builder
	for i := 0; i < clusters; i++ {
		fmt.Fprintf(&sb, "table account%d (id int, owner string, balance int)\n", i)
		fmt.Fprintf(&sb, "table audit%d (id int, owner string)\n", i)
		fmt.Fprintf(&sb, "table holds%d (id int, acct int)\n", i)
		fmt.Fprintf(&rb, `
create rule r_audit%d on account%d
when inserted
then insert into audit%d select id, owner from inserted

create rule r_hold%d on account%d
when updated(balance)
if exists (select 1 from new-updated nu where nu.balance < 0)
then insert into holds%d select nu.id, nu.id from new-updated nu where nu.balance < 0

create rule r_purge%d on account%d
when deleted
then delete from holds%d where acct in (select id from deleted)
`, i, i, i, i, i, i, i, i, i)
	}
	return sb.String(), rb.String()
}

// scaledPowernetSources replicates the powernet example's {node, wire}
// cluster (2 rules each).
func scaledPowernetSources(clusters int) (schemaSrc, rulesSrc string) {
	var sb, rb strings.Builder
	for i := 0; i < clusters; i++ {
		fmt.Fprintf(&sb, "table node%d (id int, kind string, powered bool)\n", i)
		fmt.Fprintf(&sb, "table wire%d (id int, src int, dst int, live bool)\n", i)
		fmt.Fprintf(&rb, `
create rule w_live%d on node%d
when updated(powered), inserted
then update wire%d set live = true
     where live = false and src in (select id from node%d where powered = true)

create rule n_power%d on wire%d
when updated(live), inserted
then update node%d set powered = true
     where powered = false and id in (select dst from wire%d where live = true)
`, i, i, i, i, i, i, i, i)
	}
	return sb.String(), rb.String()
}

// loadScaled memoizes scaled systems: building a 10k-rule system is
// setup cost shared by the compiled and reference sub-benchmarks.
var loadScaled = func() func(b *testing.B, kind string, clusters int) *activerules.System {
	var mu sync.Mutex
	cache := map[string]*activerules.System{}
	return func(b *testing.B, kind string, clusters int) *activerules.System {
		b.Helper()
		key := fmt.Sprintf("%s/%d", kind, clusters)
		mu.Lock()
		defer mu.Unlock()
		if sys, ok := cache[key]; ok {
			return sys
		}
		var schemaSrc, rulesSrc string
		if kind == "bank" {
			schemaSrc, rulesSrc = scaledBankSources(clusters)
		} else {
			schemaSrc, rulesSrc = scaledPowernetSources(clusters)
		}
		sys, err := activerules.Load(schemaSrc, rulesSrc)
		if err != nil {
			b.Fatal(err)
		}
		cache[key] = sys
		return sys
	}
}()

// benchAssertLoop is the measured body: one small user transition on
// cluster 0 followed by rule processing, repeated against one engine
// (compiled) or reference. With commit set every op also ends its
// transaction, as every served request does: the engine's history is
// truncated, the marks and the candidate index are reset, and the
// pending-net memo's generation moves.
func benchAssertLoop(b *testing.B, sys *activerules.System, compiled, commit bool, seed, op string) {
	b.Helper()
	eng := newSide(sys, compiled, activerules.EngineOptions{MaxSteps: 10000})
	if _, err := eng.ExecUser(seed); err != nil {
		b.Fatal(err)
	}
	if err := eng.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecUser(op); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Assert(); err != nil {
			b.Fatal(err)
		}
		if commit {
			if err := eng.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	recordBenchResult(b)
}

func benchCompiledVsReference(b *testing.B, kind string, rulesPerCluster int, commit bool, seed, op string) {
	for _, clusters := range []int{1000/rulesPerCluster + 1, 10000/rulesPerCluster + 1} {
		nRules := clusters * rulesPerCluster
		sys := loadScaled(b, kind, clusters)
		for _, mode := range []string{"reference", "compiled"} {
			b.Run(fmt.Sprintf("rules=%d/mode=%s", nRules, mode), func(b *testing.B) {
				benchAssertLoop(b, sys, mode == "compiled", commit, seed, op)
			})
		}
	}
}

// BenchmarkCompiledBank: a balance update on cluster 0 places a hold
// (r_hold fires) while the other N-3 rules sit untriggered — the regime
// delta-driven triggering exists for.
func BenchmarkCompiledBank(b *testing.B) {
	benchCompiledVsReference(b, "bank", 3, false, bankSeed, bankOp)
}

// BenchmarkCompiledBankCommit is BenchmarkCompiledBank with a Commit
// after every assertion point — the transaction shape of a served
// request, which the uncommitted loop (one ever-growing transaction)
// leaves out.
func BenchmarkCompiledBankCommit(b *testing.B) {
	benchCompiledVsReference(b, "bank", 3, true, bankSeed, bankOp)
}

const (
	bankSeed = "insert into account0 values (1, 'ann', 100), (2, 'bob', 10)"
	bankOp   = "update account0 set balance = balance - 1 where id = 2"
)

// BenchmarkCompiledPowernet: a powered flip on cluster 0's node table
// considers w_live against a live transition each op.
func BenchmarkCompiledPowernet(b *testing.B) {
	benchCompiledVsReference(b, "powernet", 2, false, powernetSeed, powernetOp)
}

// BenchmarkCompiledPowernetCommit: the same with a Commit per op.
func BenchmarkCompiledPowernetCommit(b *testing.B) {
	benchCompiledVsReference(b, "powernet", 2, true, powernetSeed, powernetOp)
}

const (
	powernetSeed = "insert into node0 values (1, 'plant', true), (2, 'sub', false);\ninsert into wire0 values (10, 1, 2, false)"
	powernetOp   = "update node0 set powered = false where id = 2"
)

// BenchmarkCompiledCascadeCommit is serve_cascade's request without the
// server around it: a 4-row insert into the chain head, rule processing
// (32 considerations, all firing) and a Commit per op on one long-lived
// compiled engine. Every 64th op the tables are swept with the timer
// stopped, as the served stream's clients sweep their own rows, so a
// long run measures the firing loop and not a growing heap.
func BenchmarkCompiledCascadeCommit(b *testing.B) {
	schemaSrc, rulesSrc, tables := workload.CascadeSources()
	sys, err := activerules.Load(schemaSrc, rulesSrc)
	if err != nil {
		b.Fatal(err)
	}
	eng := sys.NewEngine(sys.NewDB(), activerules.EngineOptions{MaxSteps: 10000})
	var sweep strings.Builder
	for i, t := range tables {
		if i > 0 {
			sweep.WriteString("; ")
		}
		sweep.WriteString("delete from " + t)
	}
	step := func(op string, fired int) {
		if _, err := eng.ExecUser(op); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Assert()
		if err != nil {
			b.Fatal(err)
		}
		if res.Fired != fired {
			b.Fatalf("fired = %d, want %d", res.Fired, fired)
		}
		if err := eng.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	const op = "insert into c0 values (11), (12), (13), (14)"
	step(op, 32) // warm the engine's and the log's scratch
	var mem allocMeter
	b.ReportAllocs()
	b.ResetTimer()
	mem.start()
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			b.StopTimer()
			mem.stop()
			step(sweep.String(), 0)
			mem.start()
			b.StartTimer()
		}
		step(op, 32)
	}
	b.StopTimer()
	mem.stop()
	recordBenchAllocs(b, &mem)
}

// BenchmarkNewSet is rule-set compilation alone at the scaled bank
// sizes: per-rule resolution plus the priority closure, whose n × n
// relation is the one allocation that grows quadratically.
func BenchmarkNewSet(b *testing.B) {
	for _, clusters := range []int{334, 3334} {
		schemaSrc, rulesSrc := scaledBankSources(clusters)
		sch, err := activerules.ParseSchema(schemaSrc)
		if err != nil {
			b.Fatal(err)
		}
		defs, err := activerules.ParseDefinitions(rulesSrc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rules=%d", len(defs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rules.NewSet(sch, defs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- results recorder ---------------------------------------------------

// benchEngineFile is the repository root's BENCH_engine.json, as seen
// from this package's directory, where go test runs its binary.
const benchEngineFile = "../../BENCH_engine.json"

// benchCommands are the runs that refresh BENCH_engine.json, one per
// section; benchPattern is the -bench pattern both name.
var benchCommands = map[string]string{
	"quick":     "go test -bench Compiled -benchtime=1x -run '^$' ./internal/engine",
	"sustained": "go test -bench Compiled -benchtime=2s -run '^$' ./internal/engine",
}

const benchPattern = "Compiled"

type benchEntry struct {
	Name    string `json:"name"`
	Iters   int    `json:"iters,omitempty"`
	NsPerOp int64  `json:"ns_per_op"`
	// Set by the benchmarks that meter their allocation (allocMeter).
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
}

type benchReport struct {
	Baseline string            `json:"baseline"`
	Date     string            `json:"date"`
	Machine  map[string]string `json:"machine"`
	Commands map[string]string `json:"commands"`
	Workload string            `json:"workload"`
	Quick    []benchEntry      `json:"quick_1x"`
	Sustain  []benchEntry      `json:"sustained_2s"`
	Notes    string            `json:"notes"`
}

var (
	benchMu      sync.Mutex
	benchResults = map[string]benchEntry{} // latest (largest-N) run per name
)

// recordBenchResult captures this invocation's ns/op; the testing
// package calls each benchmark several times with growing b.N, and the
// last (largest) invocation overwrites the earlier ones.
func recordBenchResult(b *testing.B) { recordBenchAllocs(b, nil) }

// recordBenchAllocs is recordBenchResult plus, for a non-nil meter, the
// bytes and objects allocated per op over the timed spans it bracketed.
func recordBenchAllocs(b *testing.B, m *allocMeter) {
	e := benchEntry{Name: b.Name(), Iters: b.N, NsPerOp: b.Elapsed().Nanoseconds()}
	if b.N > 0 {
		e.NsPerOp /= int64(b.N)
		if m != nil {
			e.BytesPerOp, e.AllocsPerOp = int64(m.bytes)/int64(b.N), int64(m.mallocs)/int64(b.N)
		}
	}
	benchMu.Lock()
	defer benchMu.Unlock()
	benchResults[b.Name()] = e
}

// allocMeter sums heap allocation over the spans between start and
// stop — what b.ReportAllocs prints, which testing.B does not expose.
type allocMeter struct {
	ms             runtime.MemStats
	mallocs, bytes uint64
}

func (m *allocMeter) start() {
	runtime.ReadMemStats(&m.ms)
	m.mallocs -= m.ms.Mallocs
	m.bytes -= m.ms.TotalAlloc
}

func (m *allocMeter) stop() {
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs
	m.bytes += m.ms.TotalAlloc
}

// TestMain flushes recorded benchmark results into BENCH_engine.json
// after a run of benchCommands' pattern: -benchtime=1x refreshes
// quick_1x, anything else refreshes sustained_2s. Plain test runs and
// benchmark runs of any other pattern leave the file untouched.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := flushBenchResults(); err != nil {
		fmt.Fprintln(os.Stderr, "bench recorder:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func flushBenchResults() error {
	benchMu.Lock()
	defer benchMu.Unlock()
	if f := flag.Lookup("test.bench"); len(benchResults) == 0 || f == nil || f.Value.String() != benchPattern {
		return nil
	}
	rep := benchReport{
		Baseline: "PR 7: compiled rule hot path with delta-driven triggering",
		Machine:  map[string]string{"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpuModel()},
		Commands: benchCommands,
		Workload: "BenchmarkCompiledBank / BenchmarkCompiledPowernet: one user transition plus rule processing per op against a long-lived engine, on the shipped bank (3 rules/cluster) and powernet (2 rules/cluster) examples replicated to ~1k and ~10k rules; only cluster 0 is touched. The ...Commit variants end the transaction after every op (Engine.Commit), as a served request does; the plain ones run one ever-growing transaction. BenchmarkCompiledCascadeCommit is serve_cascade's request on a bare engine: a 4-row insert into the head of a 24-deep chain with 8 fan-out rules, 32 firings and a Commit per op, with bytes and allocations per op; its .../parent=<commit> row is the same benchmark run at the commit before the change that last moved it",
		Notes:    "mode=reference is the reference rule processor the differential tests hold the engine to: it rescans every rule per step, diffing each rule's table against a snapshot of the database taken at the rule's mark, and snapshots the database before every user script and consideration; mode=compiled is the engine, with the delta-driven candidate index. The ratio at rules=10002 on BenchmarkCompiledBank is the headline number and is asserted >= 10x by TestBenchEngineRecorded. Commit resets the per-rule marks (and the engine's candidate bitset), so the ...Commit rows carry an O(rules) term on both sides.",
	}
	if data, err := os.ReadFile(benchEngineFile); err == nil {
		var old benchReport
		if err := json.Unmarshal(data, &old); err == nil {
			rep.Quick, rep.Sustain = old.Quick, old.Sustain
		}
	}
	rep.Date = buildDate()

	benchtime := "1s"
	if f := flag.Lookup("test.benchtime"); f != nil {
		benchtime = f.Value.String()
	}
	section := &rep.Sustain
	if benchtime == "1x" {
		section = &rep.Quick
	}
	merged := map[string]benchEntry{}
	for _, e := range *section {
		merged[e.Name] = e
	}
	for name, e := range benchResults {
		merged[name] = e
	}
	var names []string
	for name := range merged {
		names = append(names, name)
	}
	sortStrings(names)
	*section = nil
	for _, name := range names {
		*section = append(*section, merged[name])
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchEngineFile, append(out, '\n'), 0o644)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// buildDate reports the date of the source tree (the go.mod mtime), so
// refreshing a section does not pretend the whole file is new.
func buildDate() string {
	info, err := os.Stat(benchEngineFile)
	if err != nil {
		info, err = os.Stat("../../go.mod")
		if err != nil {
			return "unknown"
		}
	}
	return info.ModTime().UTC().Format("2006-01-02")
}

// --- tripwire -----------------------------------------------------------

// TestBenchEngineRecorded fails when BENCH_engine.json is missing,
// unparseable, missing a named workload, or no longer shows the >= 10x
// compiled speedup on the 10k-rule bank workload that the compiled hot
// path promises. Refresh with:
//
//	go test -bench Compiled -benchtime=2s -run '^$' ./internal/engine
func TestBenchEngineRecorded(t *testing.T) {
	data, err := os.ReadFile(benchEngineFile)
	if err != nil {
		t.Fatalf("%v (refresh with: %s)", err, benchCommands["sustained"])
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s does not parse: %v", benchEngineFile, err)
	}
	for _, field := range []struct{ name, val string }{
		{"baseline", rep.Baseline}, {"date", rep.Date}, {"workload", rep.Workload},
		{"machine.goos", rep.Machine["goos"]}, {"machine.cpu", rep.Machine["cpu"]},
		{"commands.sustained", rep.Commands["sustained"]},
	} {
		if field.val == "" {
			t.Errorf("%s: field %s is empty", benchEngineFile, field.name)
		}
	}
	entries := map[string]benchEntry{}
	for _, e := range rep.Quick {
		entries[e.Name] = e
	}
	for _, e := range rep.Sustain { // sustained wins when both exist
		entries[e.Name] = e
	}
	var names []string
	for _, bench := range []string{
		"BenchmarkCompiledBank", "BenchmarkCompiledPowernet",
		"BenchmarkCompiledBankCommit", "BenchmarkCompiledPowernetCommit",
	} {
		for _, nRules := range []int{1002, 10002} {
			for _, mode := range []string{"reference", "compiled"} {
				names = append(names, fmt.Sprintf("%s/rules=%d/mode=%s", bench, nRules, mode))
			}
		}
	}
	names = append(names, "BenchmarkCompiledCascadeCommit")
	for _, name := range names {
		e, ok := entries[name]
		if !ok {
			t.Errorf("%s: workload %s not recorded", benchEngineFile, name)
			continue
		}
		if e.NsPerOp <= 0 {
			t.Errorf("%s: workload %s has non-positive ns_per_op %d", benchEngineFile, name, e.NsPerOp)
		}
	}
	ref := entries["BenchmarkCompiledBank/rules=10002/mode=reference"].NsPerOp
	comp := entries["BenchmarkCompiledBank/rules=10002/mode=compiled"].NsPerOp
	if ref > 0 && comp > 0 {
		if ratio := float64(ref) / float64(comp); ratio < 10 {
			t.Errorf("10k-rule bank speedup %.1fx < 10x (reference %dns/op, compiled %dns/op)", ratio, ref, comp)
		}
	}
}
