package analysis

import (
	"crypto/sha256"
	"sort"
	"strings"

	"activerules/internal/rules"
)

// Incremental caches per-partition confluence analysis across rule-set
// versions, implementing the Section 9 incremental-analysis plan: "most
// rule applications can be partitioned into groups such that, across
// partitions, rules reference different sets of tables and have no
// priority ordering... analysis can be applied separately to each
// partition, and it needs to be repeated for a partition only when rules
// in that partition change."
//
// Usage: create one Incremental, then call Analyze with each successive
// version of the rule set (after any edit). Partitions whose rule
// content is unchanged reuse the cached verdict.
type Incremental struct {
	cert  *Certification
	cache map[string]*ConfluenceVerdict // partition fingerprint -> verdict
}

// NewIncremental creates an empty incremental analyzer honoring cert
// (nil for none). Certifications are folded into the partition
// fingerprints, so changing them via a new Incremental never reuses
// stale verdicts.
func NewIncremental(cert *Certification) *Incremental {
	if cert == nil {
		cert = NewCertification()
	}
	return &Incremental{cert: cert, cache: make(map[string]*ConfluenceVerdict)}
}

// IncrementalResult reports one Analyze call.
type IncrementalResult struct {
	// Combined is the whole-set confluence verdict (requirement per
	// partition plus full-set termination).
	Combined *ConfluenceVerdict
	// Partitions is the partition structure used.
	Partitions [][]*rules.Rule
	// Reused counts partitions served from cache; Analyzed counts
	// partitions re-analyzed this call.
	Reused, Analyzed int
}

// Analyze analyzes the given rule-set version, reusing cached partition
// verdicts where the partition's rules are textually unchanged.
func (inc *Incremental) Analyze(set *rules.Set) *IncrementalResult {
	a := New(set, inc.cert)
	parts := a.Partition()
	res := &IncrementalResult{Partitions: parts}
	next := make(map[string]*ConfluenceVerdict, len(parts))
	per := make([]*ConfluenceVerdict, len(parts))
	for i, part := range parts {
		fp := inc.partitionFingerprint(set, part)
		v, ok := inc.cache[fp]
		if ok {
			res.Reused++
		} else {
			v = a.confluenceOver(part, a.TerminationOf(part))
			res.Analyzed++
		}
		next[fp], per[i] = v, v
	}
	inc.cache = next // drop verdicts for partitions that no longer exist
	res.Combined = a.combinePartitions(per)
	return res
}

// partitionFingerprint digests everything a partition's verdict depends
// on: each member rule's full definition text (which covers triggers,
// condition, action, and therefore the derived sets), the priority
// relation restricted to the partition, and the certifications touching
// its rules.
func (inc *Incremental) partitionFingerprint(set *rules.Set, part []*rules.Rule) string {
	h := sha256.New()
	names := make([]string, len(part))
	for i, r := range part {
		names[i] = r.Name
	}
	sort.Strings(names)
	inPart := map[string]bool{}
	for _, n := range names {
		inPart[n] = true
	}
	for _, n := range names {
		r := set.Rule(n)
		h.Write([]byte(r.String()))
		h.Write([]byte{0})
		// Priorities within the partition (the closure restricted to it).
		for _, m := range names {
			if n != m && set.Higher(r, set.Rule(m)) {
				h.Write([]byte(n + ">" + m + ";"))
			}
		}
		if inc.cert.Discharged(n) {
			h.Write([]byte("discharged:" + n + ";"))
		}
	}
	for _, p := range inc.cert.CertifiedPairs() {
		if inPart[p[0]] || inPart[p[1]] {
			h.Write([]byte("commute:" + p[0] + "," + p[1] + ";"))
		}
	}
	return strings.Join(names, ",") + "#" + string(h.Sum(nil))
}
