package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	wrong     []string // output-check failures: any entry fails the run
	metrics   map[string]float64
}

// minRounds: a run sets the system up at least this often, so setup_s
// is a median and not one reading.
const minRounds = 3

// Up to setupProbes extra set-ups are timed before the rounds, for as
// long as they fit in setupProbeBudget.
const (
	setupProbes      = 100
	setupProbeBudget = time.Second
)

// e2eSample collects what the end-to-end metrics are computed from:
// one set-up time, rate and allocation figure per round, and every
// request's latency.
type e2eSample struct {
	setups, rates, allocs []float64
	lat                   []time.Duration
}

// measure runs the measured section of a round on a freshly collected
// heap and reports its wall time and the bytes it allocated.
func measure(section func()) (wall time.Duration, allocBytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	section()
	wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc
}

// addRound records one round of n requests.
func (s *e2eSample) addRound(setup time.Duration, n int, wall time.Duration, allocBytes uint64, lat []time.Duration) {
	s.setups = append(s.setups, setup.Seconds())
	s.rates = append(s.rates, float64(n)/wall.Seconds())
	s.allocs = append(s.allocs, float64(allocBytes)/float64(n)/1024)
	s.lat = append(s.lat, lat...)
}

func (s *e2eSample) metrics() map[string]float64 {
	us := sortedMicros(s.lat)
	return map[string]float64{
		"setup_s":          median(s.setups),
		"req_p50_ms":       percentile(us, 50) / 1000,
		"req_p90_ms":       percentile(us, 90) / 1000,
		"req_per_s":        median(s.rates),
		"alloc_kb_per_req": median(s.allocs),
		"peak_rss_mb":      peakRSSMiB(),
	}
}

// clientTail reports the tail of a latency sample the way a sample of
// its size supports: the highest percentile with at least ten samples
// beyond it, which percentile that is, and p99 only when it qualifies.
func clientTail(m map[string]float64, lat []time.Duration) {
	us := sortedMicros(lat)
	tail := supportedTail(len(us))
	m["client.samples"] = float64(len(us))
	m["client.tail_pct"] = tail
	m["client.req_tail_ms"] = percentile(us, tail) / 1000
	if tail >= 99 {
		m["client.req_p99_ms"] = percentile(us, 99) / 1000
	}
}

func (sp *servedSpec) run(seed int64, seconds float64, traced bool) (*result, error) {
	if traced {
		return sp.runTraced(seed, seconds)
	}
	return sp.runUntraced(seed, seconds)
}

// runUntraced is the end-to-end pass: whole rounds of the fixed stream,
// one closed-loop client, no wrapper anywhere, every timing at the
// host's full speed (see hostspeed.go).
func (sp *servedSpec) runUntraced(seed int64, seconds float64) (*result, error) {
	st := sp.stream(seed, sp.perClient)
	res := &result{}
	var e2e e2eSample
	start := time.Now()
	// A set-up of a millisecond or two is too noisy for the few rounds
	// of a run to pin down, so cheap set-ups are timed some more times
	// on their own.
	for len(e2e.setups) < setupProbes && time.Since(start) < setupProbeBudget {
		sys, err := sp.startScaled(st, nil)
		if err != nil {
			return nil, err
		}
		e2e.setups = append(e2e.setups, sys.setup.total.Seconds())
		if err := sys.close(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		r, err := sp.runRound(st, 1, seed+int64(i), nil, true)
		if err != nil {
			return nil, err
		}
		res.attempted += r.attempted
		res.failed += r.failed
		res.wrong = append(res.wrong, r.wrong...)
		e2e.addRound(r.setup.total, r.attempted, r.wall, r.allocBytes, r.lat)
	}
	res.metrics = e2e.metrics()
	return res, nil
}

// tracedShare: the traced pass replays a quarter of the op counts.
const tracedShare = 4

// runTraced is the per-layer pass. Each iteration runs the staged
// pipeline (spans, exact counts) and then the real Submit path three
// ways — one client with the filesystem wrapper, one client bare, two
// clients bare — whose differences are the derived overhead numbers.
// On the tenant and cluster topologies a flat one-client leg over the
// same stream is the reference for the topology's own overhead.
func (sp *servedSpec) runTraced(seed int64, seconds float64) (*result, error) {
	perClient := max(sp.perClient/tracedShare, 10)
	st := sp.stream(seed, perClient)
	flat := *sp
	flat.topo, flat.tenants = topoFlat, 0
	flatStream := st
	if sp.topo == topoTenants {
		flatStream = flat.stream(seed, perClient)
	}

	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	var first *staged
	var firstTwo *round
	legs := map[string][]float64{} // per-iteration medians, by metric
	add := func(name string, v float64) { legs[name] = append(legs[name], v) }
	note := func(r *round) {
		res.attempted += r.attempted
		res.failed += r.failed
		res.wrong = append(res.wrong, r.wrong...)
	}
	p50 := func(r *round) float64 { return percentile(sortedMicros(r.lat), 50) }
	medUS := func(ds []time.Duration) float64 { return percentile(sortedMicros(ds), 50) }

	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		sg, err := flat.runStaged(flatStream)
		if err != nil {
			return nil, err
		}
		res.attempted += sg.requests
		res.wrong = append(res.wrong, sg.wrong...)
		if first == nil {
			first = sg
		}
		add("sqlmini.parse_us", medUS(sg.parse))
		add("engine.exec_user_us", medUS(sg.execUser))
		add("engine.assert_us", medUS(sg.assertSelf))
		add("engine.consider_us", medUS(sg.consider))
		add("engine.commit_self_us", medUS(sg.commitSelf))
		add("storage.fingerprint_us", medUS(sg.fingerprint))
		add("storage.clone_us", medUS(sg.clone))
		add("wal.journal_us", medUS(sg.journal))
		add("wal.observe_us", medUS(sg.observe))
		add("wal.fs_write_us", medUS(sg.fsWrite))
		add("wal.fs_sync_us", medUS(sg.fsSync))
		add("wal.checkpoint_ms", medUS(sg.checkpoints)/1000)
		add("staged.total_us", medUS(sg.total))
		var engineTime, total time.Duration
		for k := range sg.total {
			engineTime += sg.execUser[k] + sg.assertSelf[k] + sg.consider[k]
			total += sg.total[k]
		}
		add("engine.share", float64(engineTime)/float64(total))

		wrapped, err := sp.runRound(st, 1, seed, &tracedFS{}, false)
		if err != nil {
			return nil, err
		}
		note(wrapped)
		one, err := sp.runRound(st, 1, seed, nil, false)
		if err != nil {
			return nil, err
		}
		note(one)
		two, err := sp.runRound(st, nClients, seed, nil, false)
		if err != nil {
			return nil, err
		}
		note(two)
		if firstTwo == nil {
			firstTwo = two
		}
		add("host.slowdown", hostSlowdown())
		add("serve.new_ms", millis(one.setup.serveNew))
		add("ruledef.parse_ms", millis(one.setup.ruledefParse))
		add("rules.compile_ms", millis(one.setup.compile))
		wrappedP50, oneP50 := p50(wrapped), p50(one)
		add("serve.overhead_us", wrappedP50-medUS(sg.total))
		add("serve.fs_busy_share", float64(wrapped.fsBusy)/float64(wrapped.wall))
		add("trace.overhead_share", (wrappedP50-oneP50)/oneP50)
		add("serve.queue_wait_us", p50(two)-oneP50)
		if len(one.setup.tenantCreate) > 0 {
			add("tenant.create_ms", medUS(one.setup.tenantCreate)/1000)
		}
		if sp.topo == topoCluster {
			add("replica.converge_ms", millis(two.converge))
		}
		if sp.topo != topoFlat {
			ref, err := flat.runRound(flatStream, 1, seed, nil, false)
			if err != nil {
				return nil, err
			}
			note(ref)
			name := "tenant.overhead_us"
			if sp.topo == topoCluster {
				name = "cluster.overhead_us"
			}
			add(name, oneP50-p50(ref))
		}
	}
	for name, vs := range legs {
		m[name] = median(vs)
	}

	// Exact counts, from the single-client staged leg: they repeat
	// bit for bit from run to run.
	n := float64(first.requests)
	m["engine.considered_per_req"] = float64(first.considered) / n
	m["engine.fired_per_req"] = float64(first.fired) / n
	m["storage.mutations_per_req"] = float64(first.mutations) / n
	m["storage.rows"] = float64(first.rows)
	m["storage.tables"] = float64(first.tables)
	m["wal.writes_per_req"] = float64(first.fs.writes) / n
	m["wal.fsyncs_per_req"] = float64(first.fs.syncs) / n
	m["wal.bytes_per_req"] = float64(first.fs.bytes) / n
	m["wal.snapshot_bytes"] = float64(first.snapshotBytes)

	c := firstTwo.ctr
	m["serve.shed_overload"] = float64(c.shedOverload)
	m["serve.shed_deadline"] = float64(c.shedDeadline)
	m["serve.reopens"] = float64(c.reopens)
	m["tenant.shed_quota"] = float64(c.shedQuota)
	m["tenant.cache_hits"] = float64(c.cacheHits)
	m["tenant.cache_misses"] = float64(c.cacheMisses)
	m["replica.lag_bytes_end"] = float64(firstTwo.lagBytes)
	m["cluster.unacked"] = float64(firstTwo.unacked)
	clientTail(m, firstTwo.lat)
	m["client.fail_share"] = float64(res.failed) / float64(res.attempted)

	if err := first.rec.writeFile(filepath.Join(outDir(), "trace-"+sp.name+".json")); err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}
	return res, nil
}
