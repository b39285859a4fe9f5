package main

// Golden-file tests for ruleexec's durable-mode output surfaces: the
// recovery summary line, the -trace wal preamble, and the checkpoint
// lines. Run with -update to rewrite the golden files after an
// intentional output change:
//
//	go test ./cmd/ruleexec -run TestGolden -update
//
// The WAL directory lives in a fresh temp dir per case, so none of its
// paths leak into the output; everything printed must be byte-stable
// across runs.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const durSchema = "testdata/durable-schema.sdl"
const durRules = "testdata/durable-rules.srl"
const durOps = "testdata/durable-ops.sql"

func TestGoldenDurable(t *testing.T) {
	base := []string{"-schema", durSchema, "-rules", durRules, "-script", durOps}
	cases := []struct {
		name  string
		extra []string // appended after -wal <dir>
		prime int      // prior runs against the same wal dir
	}{
		{"durable-fresh", []string{"-trace", "-snapshot-every", "2"}, 0},
		{"durable-recovered", nil, 1},
		{"durable-recovered-twice", []string{"-snapshot-every", "1"}, 2},
		{"durable-explore", []string{"-explore"}, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wal := filepath.Join(t.TempDir(), "wal")
			args := append(append([]string{}, base...), "-wal", wal)
			for i := 0; i < tc.prime; i++ {
				var out, errb bytes.Buffer
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("priming run %d: exit %d; %s", i, code, errb.String())
				}
			}
			args = append(args, tc.extra...)
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit = %d; stderr: %s", code, errb.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
					golden, out.String(), want)
			}
		})
	}
}

// TestGoldenCompiledModeStable renders every durable golden surface
// twice, each time into a fresh log directory; both runs must reproduce
// the same golden bytes. The engine's output does not depend on the run
// (its equivalence to the reference rule processor is the job of the
// differential battery in internal/engine).
func TestGoldenCompiledModeStable(t *testing.T) {
	cases := []struct {
		name  string
		extra []string
	}{
		{"durable-fresh", []string{"-trace", "-snapshot-every", "2"}},
		{"durable-explore", []string{"-explore"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatalf("%v (run TestGoldenDurable with -update first)", err)
			}
			for i := 1; i <= 2; i++ {
				wal := filepath.Join(t.TempDir(), "wal")
				args := []string{"-schema", durSchema, "-rules", durRules, "-script", durOps,
					"-wal", wal}
				args = append(args, tc.extra...)
				var out, errb bytes.Buffer
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("run %d: exit %d; %s", i, code, errb.String())
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("run %d output differs from golden:\ngot:\n%s\nwant:\n%s",
						i, out.String(), want)
				}
			}
		})
	}
}
