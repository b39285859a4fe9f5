package serve

import (
	"strings"
	"testing"

	"activerules/internal/analysis"
	"activerules/internal/rules"
)

// TestDegradedReportTerminationStatus pins the tiered termination
// status on the degraded-mode report: the full set's cycle is blocked
// by a replenisher (TermUnknown), and quarantining the replenisher
// leaves a countdown that tier-2 discharges with a ranking
// certificate — the served guarantee genuinely improves under
// quarantine, and the report must say so.
func TestDegradedReportTerminationStatus(t *testing.T) {
	sch, defs := mkSystem(t, "table cd (id int, v int)", `
create rule dec on cd
when updated(v)
then update cd set v = v - 1 where v > 0

create rule reset on cd
when updated(v)
then insert into cd values (9, 5)
`)
	full, bl, err := fullSet(sch, defs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Term != analysis.TermUnknown {
		t.Fatalf("baseline status = %v, want unknown (reset blocks the ranking discharge)", bl.Term)
	}

	healthy := newReport("", bl, full, nil, nil)
	if healthy.Termination != analysis.TermUnknown || healthy.WasTermination != analysis.TermUnknown {
		t.Fatalf("healthy report status = %v (was %v), want unknown/unknown",
			healthy.Termination, healthy.WasTermination)
	}
	if !strings.Contains(healthy.String(), "termination: unknown (was unknown)") {
		t.Errorf("report missing termination line:\n%s", healthy.String())
	}

	reduced, err := rules.NewSet(sch, rules.Without(defs, "reset"))
	if err != nil {
		t.Fatal(err)
	}
	degraded := newReport("", bl, reduced, []string{"reset"}, nil)
	if degraded.Termination != analysis.TermCycleDischarged {
		t.Fatalf("reduced status = %v, want cycle-discharged (countdown alone carries a ranking certificate)",
			degraded.Termination)
	}
	if degraded.WasTermination != analysis.TermUnknown {
		t.Fatalf("baseline on degraded report = %v, want unknown", degraded.WasTermination)
	}
	if !strings.Contains(degraded.String(), "termination: cycle-discharged (was unknown)") {
		t.Errorf("report missing upgraded termination line:\n%s", degraded.String())
	}
}
