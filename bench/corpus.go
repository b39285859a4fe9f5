package main

import (
	"embed"
	"os"
	"path/filepath"
)

// The benchmark's inputs are frozen copies inside its own directory
// (corpus/ mirrors the repository's testdata/ at the commit that
// defined the benchmark), so a later change to a sample application
// cannot silently change what is measured.
//
//go:embed corpus
var corpusFS embed.FS

// shippedSystems are the sample applications, in analysis order.
var shippedSystems = []string{"bank", "converge", "countdown", "drain", "flipflop", "lintdemo", "powernet"}

func corpusSources(name string) (schemaSrc, rulesSrc string) {
	read := func(file string) string {
		data, err := corpusFS.ReadFile("corpus/" + name + "/" + file)
		if err != nil {
			panic(err) // the corpus is compiled in
		}
		return string(data)
	}
	return read("schema.sdl"), read("rules.srl")
}

// benchDir locates the benchmark's own directory from the working
// directory: the repository root (./bench) or the directory itself.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// outDir holds everything a run leaves behind (span files, temporary
// WAL directories); the root .gitignore keeps it out of the tree.
func outDir() string { return filepath.Join(benchDir(), "out") }
