// Package par provides the worker pool behind the analysis package's
// pairwise sweeps (the Confluence Requirement and the commutativity
// matrix), and the one reading of a parallelism setting — 0 means one
// worker per available CPU (GOMAXPROCS), 1 means the exact sequential
// path (no goroutines, deterministic iteration order), and n > 1 means
// n workers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism setting to an effective worker count:
// 0 (or negative) resolves to runtime.GOMAXPROCS(0); anything else is
// returned unchanged.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// ForEach runs fn(i) for every i in [0, n), distributed over workers
// (a parallelism setting, resolved via Workers). With an effective worker
// count of 1 — or with n < 2 — it runs inline in index order,
// byte-for-byte the sequential path. fn must be safe to call
// concurrently when more than one worker runs.
func ForEach(parallelism, n int, fn func(i int)) {
	workers := Workers(parallelism)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
