package bench

import (
	"reflect"
	"strings"
	"testing"
)

func testCrashOptions() CrashOptions {
	o := DefaultCrash()
	o.Kills = 4
	return o
}

// TestCrashSweepOutcomes pins the headline claims of the -crash sweep: the
// unbudgeted out-of-core point OOMs with the typed error, every budgeted
// point completes byte-exactly with the tightest budget actually spilling,
// and every crash point survives all of its kill-replay-recover cycles.
func TestCrashSweepOutcomes(t *testing.T) {
	_, rows, err := Crash(testCrashOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 budgets x 2 experiments
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, row := range rows {
		switch {
		case row.Experiment == "out-of-core" && row.BudgetSegs == 0:
			if !strings.HasPrefix(row.Result, "OOM") {
				t.Errorf("unbudgeted out-of-core point: got %q, want OOM", row.Result)
			}
		case row.Experiment == "out-of-core":
			if row.Result != "ok" {
				t.Errorf("budget %d out-of-core point: %s", row.BudgetSegs, row.Result)
			}
			if row.BudgetSegs == 2 && row.Spills == 0 {
				t.Errorf("tightest budget never spilled; the demo shows nothing")
			}
		case row.Experiment == "crash":
			if row.Result != "ok" || row.KillsOK != row.Kills {
				t.Errorf("crash point budget %d: %s (%d/%d kills ok)",
					row.BudgetSegs, row.Result, row.KillsOK, row.Kills)
			}
			if row.Commits != row.Epochs {
				t.Errorf("crash point budget %d: %d commits for %d epochs",
					row.BudgetSegs, row.Commits, row.Epochs)
			}
		}
	}
}

// TestCrashSweepDeterministic pins the CI contract: two sweeps with the
// same options produce identical rows, peak-memory and kill verdicts
// included.
func TestCrashSweepDeterministic(t *testing.T) {
	ta, ra, err := Crash(testCrashOptions())
	if err != nil {
		t.Fatal(err)
	}
	tb, rb, err := Crash(testCrashOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("crash sweep not reproducible:\nrun 1: %+v\nrun 2: %+v", ra, rb)
	}
	if !reflect.DeepEqual(ta.Rows, tb.Rows) {
		t.Fatalf("crash tables differ between runs")
	}
}
