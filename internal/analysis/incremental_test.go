package analysis

import (
	"testing"

	"activerules/internal/rules"
)

const incSchema = `
table a (v int)
table b (v int)
table c (v int)
table d (v int)
`

func incSet(t *testing.T, rulesSrc string) *rules.Set {
	t.Helper()
	return compile(t, incSchema, rulesSrc, nil).set
}

func TestIncrementalCacheHits(t *testing.T) {
	inc := NewIncremental(nil)
	v1 := incSet(t, `
create rule ra on a when inserted then delete from a where v < 0
create rule rb on b when inserted then delete from b where v < 0
`)
	r1 := inc.Analyze(v1)
	if r1.Analyzed != 2 || r1.Reused != 0 {
		t.Fatalf("first call: analyzed=%d reused=%d", r1.Analyzed, r1.Reused)
	}
	if !r1.Combined.Guaranteed {
		t.Fatal("both partitions are safe")
	}
	// Change only rb's partition; ra's verdict must be reused.
	v2 := incSet(t, `
create rule ra on a when inserted then delete from a where v < 0
create rule rb on b when inserted then delete from b where v > 0
`)
	r2 := inc.Analyze(v2)
	if r2.Analyzed != 1 || r2.Reused != 1 {
		t.Errorf("second call: analyzed=%d reused=%d, want 1/1", r2.Analyzed, r2.Reused)
	}
	// Identical set: everything reused.
	r3 := inc.Analyze(v2)
	if r3.Analyzed != 0 || r3.Reused != 2 {
		t.Errorf("third call: analyzed=%d reused=%d, want 0/2", r3.Analyzed, r3.Reused)
	}
}

func TestIncrementalMatchesFromScratch(t *testing.T) {
	// The incremental combined verdict must agree with a fresh global
	// analysis for both accepted and rejected versions.
	versions := []string{
		`
create rule ra on a when inserted then insert into b values (1)
create rule rc on c when inserted then insert into d values (1)
`,
		`
create rule ra on a when inserted then update b set v = 1
create rule ra2 on a when inserted then update b set v = 2
create rule rc on c when inserted then insert into d values (1)
`,
		`
create rule ra on a when inserted then update b set v = 1
create rule ra2 on a when inserted then update b set v = 2
precedes ra
create rule rc on c when inserted then insert into d values (1)
`,
	}
	inc := NewIncremental(nil)
	for i, src := range versions {
		set := incSet(t, src)
		got := inc.Analyze(set)
		want := New(set, nil).Confluence()
		if got.Combined.Guaranteed != want.Guaranteed ||
			got.Combined.RequirementHolds != want.RequirementHolds ||
			len(got.Combined.Violations) != len(want.Violations) {
			t.Errorf("version %d: incremental disagrees with global (%v/%v vs %v/%v)",
				i, got.Combined.Guaranteed, len(got.Combined.Violations),
				want.Guaranteed, len(want.Violations))
		}
	}
}

func TestIncrementalPriorityChangeInvalidates(t *testing.T) {
	inc := NewIncremental(nil)
	v1 := incSet(t, `
create rule x on a when inserted then update b set v = 1
create rule y on a when inserted then update b set v = 2
`)
	r1 := inc.Analyze(v1)
	if r1.Combined.Guaranteed {
		t.Fatal("race must be rejected")
	}
	// Same rule text, new priority: same partition, but the fingerprint
	// must change and the verdict flip.
	v2, err := v1.WithOrdering([2]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	r2 := inc.Analyze(v2)
	if r2.Reused != 0 {
		t.Error("priority change must invalidate the cache")
	}
	if !r2.Combined.Guaranteed {
		t.Error("ordered race should be accepted")
	}
}

func TestIncrementalCertificationInFingerprint(t *testing.T) {
	src := `
create rule x on a when inserted then insert into b values (1)
create rule y on a when inserted then delete from b where v < 0
`
	set := incSet(t, src)
	plain := NewIncremental(nil).Analyze(set)
	if plain.Combined.Guaranteed {
		t.Fatal("uncertified set must be rejected")
	}
	cert := NewCertification().CertifyCommutes("x", "y")
	certified := NewIncremental(cert).Analyze(set)
	if !certified.Combined.Guaranteed {
		t.Error("certified set should be accepted")
	}
}

func TestIncrementalDropsStalePartitions(t *testing.T) {
	inc := NewIncremental(nil)
	inc.Analyze(incSet(t, `
create rule ra on a when inserted then delete from a where v < 0
create rule rb on b when inserted then delete from b where v < 0
`))
	if len(inc.cache) != 2 {
		t.Fatalf("cache = %d", len(inc.cache))
	}
	inc.Analyze(incSet(t, `
create rule ra on a when inserted then delete from a where v < 0
`))
	if len(inc.cache) != 1 {
		t.Errorf("stale partition not evicted: cache = %d", len(inc.cache))
	}
}
