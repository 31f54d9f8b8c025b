package bench

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/tcio/tcio/internal/stats"
)

// smallOptions shrinks every registered experiment that takes a size knob
// to test scale.
func smallOptions() Options {
	o := DefaultOptions()
	o.Procs = []int{8}
	o.LenReal = 64
	o.ChaosProcs = 8
	o.ScaleProcs, o.ScaleMaxProcs, o.ScaleProfiles = []int{8}, []int{1}, false
	o.Trees = 16
	o.Progs = 2
	return o
}

// TestRegistryHostColumns runs every registered experiment and pins which
// columns of each table are host facts: -det keeps exactly the others, so
// a column moving between the two changes what the determinism checks
// cover.
func TestRegistryHostColumns(t *testing.T) {
	throughput := []string{"TCIO", "OCIO"}
	want := map[string][][]string{
		"tables":     {nil, nil, nil},
		"fig5":       {throughput, throughput},
		"fig6":       {throughput},
		"fig7":       {throughput},
		"ablations":  {{"write MB/s", "read MB/s"}},
		"chaos":      {nil},
		"drainsweep": {{"write-time", "write-MB/s", "read-time", "read-MB/s"}},
		"overlap": {
			{"write-time", "write-MB/s", "eager-drains", "eager-writes", "residue-reqs", "overlap-saved", "fs-writes"},
			{"read-time", "read-MB/s"},
		},
		"overlap-chaos": {nil},
		"nodeagg":       {{"time", "MB/s"}},
		"nodeagg-chaos": {nil},
		"sieve": {
			{"time", "MB/s"},
			{"time", "MB/s", "fs-reads", "sieve-reads", "waste-bytes", "populations"},
		},
		"sieve-chaos":    {nil},
		"delegate":       {{"time", "MB/s", "stalls"}},
		"delegate-chaos": {nil},
		"delegate-read":  {{"cold", "hot", "speedup"}},
		"scale":          {{"wall", "ns/op", "B/op", "allocs/op", "mutex-top", "block-top"}},
		"crash":          {nil},
		"conform":        {},
		"table4":         {nil},
		"fig9":           {{"TCIO", "MPI-IO"}},
		"fig10":          {{"TCIO", "MPI-IO"}},
	}
	if len(want) != len(Experiments) {
		t.Fatalf("%d experiments registered, %d pinned", len(Experiments), len(want))
	}
	o := smallOptions()
	var all []stats.Table
	for _, e := range Experiments {
		tables, err := e.Run(&o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		all = append(all, tables...)
		w, ok := want[e.Name]
		if !ok || len(tables) != len(w) {
			t.Fatalf("%s: %d tables, want %d", e.Name, len(tables), len(w))
		}
		for i, tbl := range tables {
			if !reflect.DeepEqual(tbl.Host, w[i]) {
				t.Errorf("%s table %d (%s): host columns %q, want %q", e.Name, i, tbl.Title, tbl.Host, w[i])
			}
			checkShape(t, e.Name, tbl)
		}
	}
	// -json writes exactly this slice: it must encode (no options field
	// JSON cannot represent) and decode back into the one schema.
	blob, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	var back []stats.Table
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for i := range all {
		all[i].Params, back[i].Params = nil, nil
	}
	if !reflect.DeepEqual(back, all) {
		t.Error("tables changed across a JSON round trip")
	}
}

// checkShape requires every host tag to name a column and every row to
// fill every column.
func checkShape(t *testing.T, name string, tbl stats.Table) {
	t.Helper()
	headers := make(map[string]bool)
	for _, h := range tbl.Headers {
		headers[h] = true
	}
	for _, h := range tbl.Host {
		if !headers[h] {
			t.Errorf("%s (%s): host tag %q names no column", name, tbl.Title, h)
		}
	}
	if len(tbl.Rows) == 0 {
		t.Errorf("%s (%s): no rows", name, tbl.Title)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Headers) {
			t.Errorf("%s (%s): row %q has %d cells for %d columns", name, tbl.Title, row, len(row), len(tbl.Headers))
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Select(all) = %d experiments, %v", len(all), err)
	}
	got, err := Select("fig6, crash")
	if err != nil || len(got) != 2 || got[0].Name != "fig6" || got[1].Name != "crash" {
		t.Fatalf("Select(fig6, crash) = %v, %v", got, err)
	}
	if _, err := Select("fig5,nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestSharedSweepRunsOnce pins that fig6 and fig7 (one file-size sweep)
// take their tables from a single run.
func TestSharedSweepRunsOnce(t *testing.T) {
	var o Options
	runs := 0
	sweep := func() ([]stats.Table, error) {
		runs++
		return []stats.Table{{Title: "w"}, {Title: "r"}}, nil
	}
	w, _ := o.share("k", 0, sweep)
	r, _ := o.share("k", 1, sweep)
	if runs != 1 || w[0].Title != "w" || r[0].Title != "r" {
		t.Fatalf("runs=%d tables %q %q", runs, w[0].Title, r[0].Title)
	}
}
