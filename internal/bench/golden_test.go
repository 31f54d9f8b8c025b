package bench

// Golden files pin the deterministic view of every table that has one, at
// the reduced sizes the package's determinism tests use. A harness refactor
// must leave these bytes unchanged; regenerate them (go test -run
// TestDeterministicTablesGolden -update ./internal/bench/) only when a
// simulated number is meant to move.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/tcio/tcio/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTables builds each golden file's tables. Files are CSV (as
// tciobench -csv prints them) except where text is set: Tables I and II
// hold commas inside cells, so their aligned rendering is pinned instead.
var goldenTables = []struct {
	name string
	text bool
	run  func() ([]stats.Table, error)
}{
	{"tables", true, func() ([]stats.Table, error) {
		return []stats.Table{Table1(), Table2(DefaultSweep()), Table3()}, nil
	}},
	{"chaos", false, func() ([]stats.Table, error) {
		t, err := Chaos(testChaosOptions())
		return []stats.Table{t}, err
	}},
	{"overlap-chaos", false, func() ([]stats.Table, error) {
		t, err := OverlapChaos(overlapTestOpts(), 7)
		return []stats.Table{t}, err
	}},
	{"nodeagg-chaos", false, func() ([]stats.Table, error) {
		t, err := NodeAggChaos(DefaultNodeAgg(), 7)
		return []stats.Table{t}, err
	}},
	{"sieve-chaos", false, func() ([]stats.Table, error) {
		t, err := SieveChaos(smallSieveOpts(), 7)
		return []stats.Table{t}, err
	}},
	{"delegate-chaos", false, func() ([]stats.Table, error) {
		t, err := DelegateChaos(smallDelegateOpts(), 7)
		return []stats.Table{t}, err
	}},
	{"crash", false, func() ([]stats.Table, error) {
		t, _, err := Crash(testCrashOptions())
		return []stats.Table{t}, err
	}},
	{"delegate-read", false, func() ([]stats.Table, error) {
		t, _, err := DelegateRead(smallDelegateReadOpts())
		return []stats.Table{t}, err
	}},
	{"scale", false, func() ([]stats.Table, error) {
		t, _, err := Scale(smallScale())
		return []stats.Table{t}, err
	}},
}

func TestDeterministicTablesGolden(t *testing.T) {
	for _, g := range goldenTables {
		g := g
		t.Run(g.name, func(t *testing.T) {
			tables, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, tbl := range tables {
				tbl = tbl.Det()
				if g.text {
					err = tbl.Render(&got)
				} else {
					fmt.Fprintf(&got, "# %s\n", tbl.Title)
					err = tbl.CSV(&got)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
			}
		})
	}
}
