package stats

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/simtime"
)

func TestThroughputMBs(t *testing.T) {
	// 1e6 bytes in 1 second = 1 MB/s.
	if got := ThroughputMBs(1_000_000, simtime.Second); got != 1.0 {
		t.Fatalf("got %v", got)
	}
	if got := ThroughputMBs(500_000_000, 500*simtime.Millisecond); got != 1000.0 {
		t.Fatalf("got %v", got)
	}
	if ThroughputMBs(100, 0) != 0 {
		t.Fatal("zero duration should yield 0")
	}
}

func TestSample(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 6} {
		s.Add(v)
	}
	if s.N() != 3 || s.Mean() != 4 || s.Min() != 2 || s.Max() != 6 {
		t.Fatalf("sample stats: n=%d mean=%v min=%v max=%v", s.N(), s.Mean(), s.Min(), s.Max())
	}
	if sd := s.Stddev(); sd < 1.6 || sd > 1.7 {
		t.Fatalf("stddev = %v", sd)
	}
	var empty Sample
	if empty.Mean() != 0 || empty.Stddev() != 0 {
		t.Fatal("empty sample should be zero")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Demo", Headers: []string{"a", "long-header"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "a       long-header", "x       1", "longer  2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"p", "mbs"}}
	tb.AddRow("64", "123.4")
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "p,mbs\n64,123.4\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

// TestTableCSVQuotesCommas pins the failed-cell case: a failure reason
// carries err.Error(), commas included, and must stay one field.
func TestTableCSVQuotesCommas(t *testing.T) {
	tb := Table{Headers: []string{"procs", "TCIO", "OCIO"}}
	fail := "FAIL (mpi: 30000 ranks need 2500 nodes, machine has 1888)"
	tb.AddRow("30000", fail, fail)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not parse: %v", err)
	}
	want := [][]string{tb.Headers, tb.Rows[0]}
	if !reflect.DeepEqual(records, want) {
		t.Fatalf("CSV round trip = %q, want %q", records, want)
	}
}

func TestTableDet(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"p", "wall", "count", "mbs"}, Host: []string{"wall", "mbs"}}
	tb.AddRow(64, "1.5s", int64(7), "12.5")
	tb.AddRow(128, "2.5s", int64(9), "13.5")
	det := tb.Det()
	if !reflect.DeepEqual(det.Headers, []string{"p", "count"}) || det.Host != nil {
		t.Fatalf("det headers %q host %q", det.Headers, det.Host)
	}
	if want := [][]string{{"64", "7"}, {"128", "9"}}; !reflect.DeepEqual(det.Rows, want) {
		t.Fatalf("det rows %q, want %q", det.Rows, want)
	}
	if len(tb.Headers) != 4 || len(tb.Rows[0]) != 4 {
		t.Fatal("Det modified its receiver")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2 << 10:   "2.0KB",
		768 << 20: "768.0MB",
		48 << 30:  "48.0GB",
		2 << 40:   "2.0TB",
	}
	for n, want := range cases {
		if got := FmtBytes(n); got != want {
			t.Errorf("FmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFmtMBs(t *testing.T) {
	if got := FmtMBs(123.456); got != "123.5" {
		t.Fatalf("got %q", got)
	}
}
