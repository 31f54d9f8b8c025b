// Package stats provides the small measurement toolkit shared by the
// benchmark harness: throughput math, aggregation over repeated runs, and
// plain-text/CSV table rendering for the paper's figures.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/tcio/tcio/internal/simtime"
)

// ThroughputMBs converts (bytes, duration) into the paper's unit,
// MBytes/sec (decimal MB, as throughput plots conventionally use).
func ThroughputMBs(bytes int64, d simtime.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// Sample aggregates repeated measurements of one quantity.
type Sample struct {
	n    int
	sum  float64
	min  float64
	max  float64
	sumQ float64
}

// Add records one measurement.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumQ += v * v
}

// N reports the number of measurements.
func (s *Sample) N() int { return s.n }

// Mean reports the average (0 with no data).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest measurement.
func (s *Sample) Min() float64 { return s.min }

// Max reports the largest measurement.
func (s *Sample) Max() float64 { return s.max }

// Stddev reports the population standard deviation.
func (s *Sample) Stddev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumQ/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Table is a rendered experiment result: one paper table or one figure's
// data series. It is also the one schema every experiment's JSON output
// uses.
type Table struct {
	// Experiment is the registry name of the experiment that produced the
	// table.
	Experiment string     `json:"experiment,omitempty"`
	Title      string     `json:"title"`
	Headers    []string   `json:"headers"`
	Rows       [][]string `json:"rows"`
	// Host names the columns that hold host facts: wall-clock measurements
	// and virtual quantities that depend on the host's goroutine scheduling.
	// Every other column is deterministic, a pure function of the options
	// and the seed; Det keeps exactly those.
	Host []string `json:"host,omitempty"`
	// Note is a free-text line printed after the table.
	Note string `json:"note,omitempty"`
	// Params records the options the table was produced with.
	Params any `json:"params,omitempty"`
}

// AddRow appends one row, formatting each value with fmt.Sprint.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = fmt.Sprint(v)
	}
	t.Rows = append(t.Rows, row)
}

// Det returns the table's deterministic view: the columns not named in
// Host, in their original order.
func (t Table) Det() Table {
	host := make(map[string]bool, len(t.Host))
	for _, h := range t.Host {
		host[h] = true
	}
	out := t
	out.Headers, out.Host = nil, nil
	out.Rows = make([][]string, len(t.Rows))
	for c, h := range t.Headers {
		if host[h] {
			continue
		}
		out.Headers = append(out.Headers, h)
		for r, row := range t.Rows {
			out.Rows[r] = append(out.Rows[r], row[c])
		}
	}
	return out
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, cell)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as RFC 4180 comma-separated values: a cell holding
// a comma or a quote (a failure reason, say) is quoted.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// FmtMBs formats a throughput value the way the paper's axes do.
func FmtMBs(v float64) string {
	return fmt.Sprintf("%.1f", v)
}

// FmtBytes formats a byte count with a binary-unit suffix.
func FmtBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
