package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d, want 1", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var got []int
	ForEach(1, 5, func(i int) { got = append(got, i) })
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("ForEach(1, 5) ran %d calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach(1, 5) order = %v, want %v", got, want)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int32, n)
	ForEach(8, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(8, 0, func(int) { called = true })
	if called {
		t.Error("ForEach with n=0 invoked fn")
	}
}

func TestForEachMoreWorkersThanItems(t *testing.T) {
	var count atomic.Int32
	ForEach(64, 3, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("ran %d calls, want 3", count.Load())
	}
}
