// Command bench is the repository's benchmark: served-request latency,
// analyzer time-to-verdict and recovery time, end to end and layer by
// layer. See README.md in this directory.
//
// One run, as the driver calls it:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// measures one workload in this process and prints one JSON object as
// the last line of standard output. Without --workload it runs the whole
// suite, each run in a fresh child process (clean heap, its own peak
// RSS), and prints every metric by name with its unit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload in this process (default: the whole suite)")
	seed := flag.Int64("seed", 1, "workload generator seed (reaches only the generator)")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1: the traced per-layer pass; 0: the untraced end-to-end pass")
	selfcheck := flag.Bool("selfcheck", false, "measure the driver's workloads untraced in two sets of runs and hold their spreads and medians to the bounds")
	runs := flag.Int("runs", 10, "-selfcheck: runs per set")
	pin := flag.Bool("pin", false, "rewrite expected/analyze.json from the current analyzer output")
	contract := flag.Bool("contract", false, "print BENCHMARK.json as spec.go defines it")
	flag.Parse()

	switch {
	case *contract:
		fmt.Println(string(contractJSON()))
		return 0
	case *pin:
		if err := pinReports(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *workload != "":
		return runOne(*workload, *seed, *seconds, *trace == 1)
	case *selfcheck:
		return runSelfcheck(*seed, *seconds, *runs)
	default:
		return runSuite(*seed, *seconds)
	}
}

// contractJSON renders the benchmark's contract file from spec.go.
func contractJSON() []byte {
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	c := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []bounded      `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		PerLayer:   perLayer,
	}
	for _, ms := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, bounded(ms))
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // plain data
	}
	return data
}

// report is the JSON object a run prints last.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process.
func runOne(name string, seed int64, seconds float64, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	res, err := w.run(seed, seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, msg := range res.wrong {
		fmt.Fprintln(os.Stderr, "bench: WRONG:", msg)
	}
	if hr := append([]float64(nil), hostReadings...); len(hr) > 0 {
		sort.Float64s(hr)
		fmt.Fprintf(os.Stderr, "bench: host slowdown over %d readings: median %.2f, quartiles %.2f and %.2f (1 = full speed; see hostspeed.go)\n",
			len(hr), percentile(hr, 50), percentile(hr, 25), percentile(hr, 75))
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	rep := report{Correct: len(res.wrong) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, ms := range specs {
		rep.Metrics[ms.Name] = metricValue{Value: res.metrics[ms.Name], Unit: ms.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// peakRSSMiB is this process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// ---- suite ----

// child re-executes this binary for one run and parses its last line.
func child(name string, seed int64, seconds float64, traced bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return nil, fmt.Errorf("%s: unreadable result: %w", name, jerr)
	}
	return &rep, nil // a failed check still reports; the caller looks at Correct
}

func printReport(name, pass string, specs []metricSpec, rep *report) {
	fmt.Printf("== %s (%s)  attempted=%d failed=%d correct=%v\n", name, pass, rep.Attempted, rep.Failed, rep.Correct)
	for _, ms := range specs {
		fmt.Printf("  %-28s %14.4f %s\n", ms.Name, rep.Metrics[ms.Name].Value, ms.Unit)
	}
}

// runSuite runs both passes of every workload.
func runSuite(seed int64, seconds float64) int {
	ok := true
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			rep, err := child(w.Name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if traced {
				printReport(w.Name, "per layer", perLayer, rep)
			} else {
				printReport(w.Name, "end to end", endToEnd, rep)
			}
			ok = ok && rep.Correct && rep.Failed == 0
		}
	}
	if !ok {
		fmt.Println("FAIL: an output check failed")
		return 1
	}
	fmt.Println("ok: every output check passed")
	return 0
}

// ---- selfcheck ----

// selfcheckRecord is what -selfcheck stores under results/.
type selfcheckRecord struct {
	When       string  `json:"when"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs_per_set"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	// [set][workload][metric]: the set's runs, in the order they were made.
	Sets [2]map[string]map[string][]float64 `json:"sets"`
	Pass bool                               `json:"pass"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// runSelfcheck does what the driver does before it accepts the
// benchmark: for every workload the driver gates on, two sets of runs of
// the same code, each run with another seed. It fails if an end-to-end
// metric's spread within a set (interquartile range over median) exceeds
// its bound, setup_s excepted, or if the second set's median is worse
// than the first's by more than the bound.
func runSelfcheck(seed int64, seconds float64, runs int) int {
	rec := selfcheckRecord{When: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds, Runs: runs,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpuModel()}
	rec.Pass = true
	rec.Sets = [2]map[string]map[string][]float64{{}, {}}
	for _, w := range workloads {
		for set := range rec.Sets {
			rec.Sets[set][w.Name] = map[string][]float64{}
			for k := 0; k < runs; k++ {
				rep, err := child(w.Name, seed+int64(set*runs+k), seconds, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				rec.Pass = rec.Pass && rep.Correct && rep.Failed == 0
				for name, mv := range rep.Metrics {
					rec.Sets[set][w.Name][name] = append(rec.Sets[set][w.Name][name], mv.Value)
				}
			}
		}
	}
	fmt.Printf("%-14s %-18s %12s %12s %8s %8s %9s %6s\n", "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "worse by", "bound")
	for _, w := range workloads {
		for _, ms := range endToEnd {
			a, b := rec.Sets[0][w.Name][ms.Name], rec.Sets[1][w.Name][ms.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if ms.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			flag := ""
			if worse > ms.Bound || (ms.Name != "setup_s" && max(sa, sb) > ms.Bound) {
				flag = "  OVER"
				rec.Pass = false
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %7.1f%% %7.1f%% %8.1f%% %5.0f%%%s\n",
				w.Name, ms.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*ms.Bound, flag)
		}
	}
	dir := filepath.Join(benchDir(), "results")
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "selfcheck-latest.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rec.Pass {
		fmt.Println("FAIL: a spread or a difference between the sets is over its bound, or an output check failed")
		return 1
	}
	fmt.Println("ok: every spread and every difference between the sets is within its bound")
	return 0
}
