package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"activerules/internal/analysis"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/workload"
)

// analyze: time to a verdict. One request is one rule system taken from
// compiled definitions to every report rulecheck can print for it:
// termination, confluence, observable determinism, partial confluence
// of the first four tables, the shard plan and the lint diagnostics,
// with condition-aware refinement on and analysis parallelism 1.
//
// The timed corpus is the seven shipped systems plus eight generated
// ones. Fifteen systems put the median and the 90th percentile in the
// middle of one system's samples (the 8th and 14th by cost: 96 and 224 rules), not on the
// border between two, and sizes stop at 256 rules so a 10-second run
// collects the hundred samples a 90th percentile needs: the shard
// planner grows about 8x per doubling of the rule count, and
// analysis.shard_plan_growth reports that slope directly.
//
// The timed sets are frozen: analysis cost depends on the random
// structure by +-25 % from one generator seed to the next, and on the
// order of analysis by as much for the small sets (the garbage a big
// set leaves is collected during the next one); both were measured when
// the benchmark was defined and are far above any bound. So -seed does
// not reach the timed corpus. It generates a second, untimed family of
// sets that is held to the invariants only.
type analyzeSpec struct {
	sizes     []int // the frozen generated sets, by rule count
	invariant []int // the untimed seed-derived sets
}

var defaultAnalyze = analyzeSpec{
	sizes:     []int{96, 112, 128, 144, 160, 192, 224, 256},
	invariant: []int{48, 96, 128},
}

const (
	partialTables = 4
	// shapeRules: every generated set carries the four rules of the
	// three cyclic-but-terminating shapes on top of its size.
	shapeRules = 4
)

// ruleSystem is one corpus entry, ready to compile.
type ruleSystem struct {
	name string
	sch  *schema.Schema
	defs []rules.Definition
}

// generate builds one set: acyclic random rules plus the countdown,
// drain and converge shapes, so it terminates by construction and the
// analyzer must say so.
func generate(name string, genSeed int64, n int) (ruleSystem, error) {
	g, err := workload.Generate(workload.Config{
		Seed:            genSeed,
		Rules:           n,
		Acyclic:         true,
		WriteFanout:     2,
		UpdateFrac:      0.3,
		DeleteFrac:      0.2,
		ConditionFrac:   0.5,
		PriorityDensity: 0.3,
		ObservableFrac:  0.1,
		TransRefFrac:    0.3,
		CyclicShapes:    []string{"countdown", "drain", "converge"},
	})
	if err != nil {
		return ruleSystem{}, err
	}
	return ruleSystem{name: name, sch: g.Schema, defs: g.Defs}, nil
}

// buildCorpus parses the shipped sources and generates the frozen sets.
// It also reports the time spent in ruledef.Parse.
func (sp analyzeSpec) buildCorpus() ([]ruleSystem, time.Duration, error) {
	var corpus []ruleSystem
	var parse time.Duration
	for _, name := range shippedSystems {
		schemaSrc, rulesSrc := corpusSources(name)
		sch, err := schema.Parse(schemaSrc)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		t := time.Now()
		defs, err := ruledef.Parse(rulesSrc)
		parse += time.Since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		corpus = append(corpus, ruleSystem{name: name, sch: sch, defs: defs})
	}
	for _, n := range sp.sizes {
		sys, err := generate(fmt.Sprintf("gen%d", n), 1000003+int64(n), n)
		if err != nil {
			return nil, 0, err
		}
		corpus = append(corpus, sys)
	}
	return corpus, parse, nil
}

// verdicts is one system's analysis: the rendered reports and what the
// checks and the per-layer metrics need from them.
type verdicts struct {
	report      string
	terminates  bool
	rules       int
	compile     time.Duration
	termination time.Duration
	confluence  time.Duration
	observable  time.Duration
	partial     time.Duration
	shardPlan   time.Duration
	lint        time.Duration
}

// analyzeSystem is the measured request.
func analyzeSystem(sys *ruleSystem, refine bool, parallelism int) (*verdicts, error) {
	v := &verdicts{}
	t := time.Now()
	set, err := rules.NewSet(sys.sch, sys.defs)
	if err != nil {
		return nil, err
	}
	v.compile = time.Since(t)
	v.rules = set.Len()
	a := analysis.New(set, nil).SetRefinement(refine).SetParallelism(parallelism)
	var sb strings.Builder
	stage := func(d *time.Duration, f func() string) {
		t := time.Now()
		sb.WriteString(f())
		*d = time.Since(t)
	}
	stage(&v.termination, func() string {
		tv := a.Termination()
		v.terminates = tv.Guaranteed
		return analysis.ReportTermination(tv)
	})
	stage(&v.confluence, func() string { return analysis.ReportConfluence(a.Confluence()) })
	stage(&v.observable, func() string { return analysis.ReportObservable(a.ObservableDeterminism()) })
	stage(&v.partial, func() string {
		tables := sys.sch.TableNames()
		if len(tables) > partialTables {
			tables = tables[:partialTables]
		}
		return analysis.ReportPartialConfluence(a.PartialConfluence(tables))
	})
	stage(&v.shardPlan, func() string { return a.ShardPlan().String() })
	stage(&v.lint, func() string { return analysis.RenderLintText(a.Lint(), sys.name) })
	v.report = sb.String()
	return v, nil
}

// stripUpgrades removes the confluence reports' "refined to commute"
// explanations (top-level or nested in another report). That list is every pair the analyzer happened to
// examine, which depends on the order pairs are visited in, so it
// differs between parallelism levels even though every verdict line
// agrees.
func stripUpgrades(report string) string {
	var out []string
	skipDeeper := -1 // indentation of the entry being skipped
	for _, line := range strings.Split(report, "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if strings.HasPrefix(line[indent:], "refined to commute: ") {
			skipDeeper = indent
			continue
		}
		if skipDeeper >= 0 && indent > skipDeeper {
			continue // the entry's justification lines
		}
		skipDeeper = -1
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func reportHash(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

// expectedReports are the pinned hashes of every timed system's
// sequential report.
//
//go:embed expected/analyze.json
var expectedJSON []byte

func expectedReports() (map[string]string, error) {
	var m map[string]string
	return m, json.Unmarshal(expectedJSON, &m)
}

// pinReports recomputes expected/analyze.json (the -pin flag); run it
// only when a report is meant to change.
func pinReports() error {
	corpus, _, err := defaultAnalyze.buildCorpus()
	if err != nil {
		return err
	}
	pins := map[string]string{}
	for i := range corpus {
		v, err := analyzeSystem(&corpus[i], true, 1)
		if err != nil {
			return err
		}
		pins[corpus[i].name] = reportHash(v.report)
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), "expected", "analyze.json"), append(data, '\n'), 0o644)
}

// checkCorpus verifies the analyzer's output once per run. seq are the
// timed corpus's sequential verdicts: their reports must match the
// pinned hashes and, explanations aside, the reports at parallelism
// nproc. Generated sets — the frozen ones and a family derived from
// -seed — must come out "termination guaranteed".
func (sp analyzeSpec) checkCorpus(corpus []ruleSystem, seq []*verdicts, seed int64) ([]string, error) {
	want, err := expectedReports()
	if err != nil {
		return nil, err
	}
	var wrong []string
	check := func(sys *ruleSystem, seq *verdicts, generated bool) error {
		par, err := analyzeSystem(sys, true, runtime.NumCPU())
		if err != nil {
			return err
		}
		if stripUpgrades(seq.report) != stripUpgrades(par.report) {
			wrong = append(wrong, fmt.Sprintf("%s: verdicts differ between parallelism 1 and %d", sys.name, runtime.NumCPU()))
		}
		if generated && !seq.terminates {
			wrong = append(wrong, fmt.Sprintf("%s: terminating by construction, but the verdict is not guaranteed", sys.name))
		}
		return nil
	}
	for i := range corpus {
		sys := &corpus[i]
		if err := check(sys, seq[i], strings.HasPrefix(sys.name, "gen")); err != nil {
			return nil, err
		}
		if got := reportHash(seq[i].report); got != want[sys.name] {
			wrong = append(wrong, fmt.Sprintf("%s: report hash %s differs from the pinned %q", sys.name, got, want[sys.name]))
		}
	}
	for _, n := range sp.invariant {
		sys, err := generate(fmt.Sprintf("seeded%d", n), seed*7907+int64(n), n)
		if err != nil {
			return nil, err
		}
		v, err := analyzeSystem(&sys, true, 1)
		if err != nil {
			return nil, err
		}
		if err := check(&sys, v, true); err != nil {
			return nil, err
		}
	}
	return wrong, nil
}

// analyzePass analyzes every system once and returns the verdicts with
// each system's wall time and the pass's own.
func analyzePass(corpus []ruleSystem, refine bool, parallelism int) (vs []*verdicts, lat []time.Duration, wall time.Duration, err error) {
	vs = make([]*verdicts, len(corpus))
	lat = make([]time.Duration, len(corpus))
	t0 := time.Now()
	for k := range corpus {
		if lat[k], err = analyzeOne(corpus, vs, k, refine, parallelism); err != nil {
			return nil, nil, 0, err
		}
	}
	return vs, lat, time.Since(t0), nil
}

func analyzeOne(corpus []ruleSystem, vs []*verdicts, k int, refine bool, parallelism int) (d time.Duration, err error) {
	t := time.Now()
	vs[k], err = analyzeSystem(&corpus[k], refine, parallelism)
	return time.Since(t), err
}

func (sp analyzeSpec) run(seed int64, seconds float64, traced bool) (*result, error) {
	if traced {
		return sp.runTraced(seed, seconds)
	}
	res := &result{}
	var e2e e2eSample
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		var corpus []ruleSystem
		setup, err := timeSetup(func() (err error) {
			corpus, _, err = sp.buildCorpus()
			return err
		})
		if err != nil {
			return nil, err
		}
		vs := make([]*verdicts, len(corpus))
		var lat []time.Duration
		var wall time.Duration
		_, alloc := measure(func() {
			lat, wall = timeEach(len(corpus), func(k int) time.Duration {
				d, e := analyzeOne(corpus, vs, k, true, 1)
				if e != nil {
					err = e
				}
				return d
			})
		})
		if err != nil {
			return nil, err
		}
		res.attempted += len(corpus)
		e2e.addRound(setup, len(corpus), wall, alloc, lat)
		if i == 0 {
			// The checks' own analyses are not part of the measurement.
			t := time.Now()
			if res.wrong, err = sp.checkCorpus(corpus, vs, seed); err != nil {
				return nil, err
			}
			start = start.Add(time.Since(t))
		}
	}
	res.metrics = e2e.metrics()
	return res, nil
}

// runTraced reports each analysis's time summed over the corpus, and
// repeats the pass without refinement and at full parallelism for the
// two derived numbers.
func (sp analyzeSpec) runTraced(seed int64, seconds float64) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	corpus, parse, err := sp.buildCorpus()
	if err != nil {
		return nil, err
	}
	legs := map[string][]float64{}
	add := func(name string, v float64) { legs[name] = append(legs[name], v) }
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		vs, _, wall, err := analyzePass(corpus, true, 1)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t := time.Now()
			if res.wrong, err = sp.checkCorpus(corpus, vs, seed); err != nil {
				return nil, err
			}
			start = start.Add(time.Since(t))
		}
		_, _, plain, err := analyzePass(corpus, false, 1)
		if err != nil {
			return nil, err
		}
		_, _, wide, err := analyzePass(corpus, true, runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		res.attempted += 3 * len(corpus)
		var sum verdicts
		plan := map[int]time.Duration{} // ShardPlan time by rule count
		for _, v := range vs {
			sum.rules += v.rules
			sum.compile += v.compile
			sum.termination += v.termination
			sum.confluence += v.confluence
			sum.observable += v.observable
			sum.partial += v.partial
			sum.shardPlan += v.shardPlan
			sum.lint += v.lint
			plan[v.rules] = v.shardPlan
		}
		res.metrics["analysis.rules"] = float64(sum.rules)
		add("rules.compile_ms", millis(sum.compile))
		add("analysis.termination_ms", millis(sum.termination))
		add("analysis.confluence_ms", millis(sum.confluence))
		add("analysis.observable_ms", millis(sum.observable))
		add("analysis.partial_ms", millis(sum.partial))
		add("analysis.shard_plan_ms", millis(sum.shardPlan))
		add("analysis.lint_ms", millis(sum.lint))
		add("analysis.pass_s", wall.Seconds())
		add("host.slowdown", hostSlowdown())
		add("analysis.refine_extra_ms", millis(wall-plain))
		add("analysis.parallel_ratio", wide.Seconds()/wall.Seconds())
		if base := plan[128+shapeRules]; base > 0 {
			add("analysis.shard_plan_growth", float64(plan[256+shapeRules])/float64(base))
		}
	}
	for name, vs := range legs {
		res.metrics[name] = median(vs)
	}
	res.metrics["ruledef.parse_ms"] = millis(parse)
	res.metrics["client.samples"] = float64(res.attempted)
	return res, nil
}
