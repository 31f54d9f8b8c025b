// Package tcio_test holds the repository-level benchmark suite: one
// testing.B benchmark per table and figure of the paper, plus ablations of
// the design choices DESIGN.md calls out. These run miniature versions of
// the experiments (few ranks, small arrays) so `go test -bench=.` finishes
// quickly; cmd/tciobench regenerates the full-scale curves.
//
// Every benchmark reports the simulated aggregate throughput as the custom
// metric "simMB/s" — the quantity on the paper's y-axes. Wall-clock ns/op
// measures the simulator itself, not the modelled system.
package tcio_test

import (
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/bench"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/stats"
)

// syntheticPoint runs one (method, procs) point of the synthetic benchmark
// and reports simulated throughput.
func syntheticPoint(b *testing.B, method bench.Method, procs, lenReal int, scale int64, mutate func(*bench.SyntheticConfig)) (write, read float64) {
	b.Helper()
	var wSum, rSum float64
	for i := 0; i < b.N; i++ {
		env, err := bench.NewEnv(scale)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bench.SyntheticConfig{
			Method:     method,
			Procs:      procs,
			TypeArray:  []datatype.Type{datatype.Int, datatype.Double},
			LenArray:   lenReal,
			SizeAccess: 1,
			Verify:     true,
			FileName:   fmt.Sprintf("bench-%v-%d", method, procs),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := bench.RunSynthetic(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Write.Failed || res.Read.Failed {
			b.Fatalf("point failed: %s %s", res.Write.FailReason, res.Read.FailReason)
		}
		wSum += res.Write.MBs
		rSum += res.Read.MBs
	}
	return wSum / float64(b.N), rSum / float64(b.N)
}

// BenchmarkTable1Params regenerates Table I (parameter definitions).
func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table1().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3LinesOfCode regenerates Table III's programming-effort
// comparison from the embedded Program 2/3 sources.
func BenchmarkTable3LinesOfCode(b *testing.B) {
	var loc2, loc3 int
	for i := 0; i < b.N; i++ {
		loc2, loc3 = bench.ProgramLines()
		if loc3 >= loc2 {
			b.Fatal("TCIO program not shorter")
		}
	}
	b.ReportMetric(float64(loc2), "ocioLoC")
	b.ReportMetric(float64(loc3), "tcioLoC")
}

// BenchmarkFig5Write measures the write side of Figure 5 at a reduced
// process count for both methods.
func BenchmarkFig5Write(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			w, _ := syntheticPoint(b, m, 16, 1024, 256, nil)
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkFig5Read measures the read side of Figure 5.
func BenchmarkFig5Read(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			_, r := syntheticPoint(b, m, 16, 1024, 256, nil)
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// BenchmarkFig6 measures write throughput vs file size (one mid-size point
// per method); the OOM reproduction at the 48 GB point is covered by the
// bench package's tests.
func BenchmarkFig6(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			w, _ := syntheticPoint(b, m, 12, 1024, 1024, nil)
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkFig7 measures read throughput vs file size.
func BenchmarkFig7(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			_, r := syntheticPoint(b, m, 12, 1024, 1024, nil)
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// artPoint runs one (library, procs) ART checkpoint/restart point.
func artPoint(b *testing.B, lib art.Library, procs int) (write, read float64) {
	b.Helper()
	opts := bench.ARTOptions{
		Procs:      []int{procs},
		Trees:      64,
		Vars:       2,
		MuCells:    256,
		SigmaCells: 32,
		Seed:       art.TableIV.Seed,
		Scale:      1,
	}
	var wSum, rSum float64
	for i := 0; i < b.N; i++ {
		_, _, results, err := bench.Fig9And10(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Failed {
				b.Fatalf("%v failed: %s", r.Library, r.FailReason)
			}
			if r.Library == lib {
				wSum += r.WriteMBs
				rSum += r.ReadMBs
			}
		}
	}
	return wSum / float64(b.N), rSum / float64(b.N)
}

// BenchmarkFig9 measures ART checkpoint write throughput, TCIO vs vanilla.
func BenchmarkFig9(b *testing.B) {
	for _, lib := range []art.Library{art.LibTCIO, art.LibVanilla} {
		b.Run(lib.String(), func(b *testing.B) {
			w, _ := artPoint(b, lib, 8)
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkFig10 measures ART restart read throughput.
func BenchmarkFig10(b *testing.B) {
	for _, lib := range []art.Library{art.LibTCIO, art.LibVanilla} {
		b.Run(lib.String(), func(b *testing.B) {
			_, r := artPoint(b, lib, 8)
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// BenchmarkTable4Segments regenerates the Table IV distribution and checks
// its statistics.
func BenchmarkTable4Segments(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		sizes := art.SegmentSizes(art.TableIV.Segments, art.TableIV.Mu, art.TableIV.Sigma, art.TableIV.Seed)
		var s stats.Sample
		for _, v := range sizes {
			s.Add(float64(v))
		}
		mean = s.Mean()
	}
	b.ReportMetric(mean, "meanCells")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationLevel1 compares TCIO with and without the level-1
// coalescing buffer: without it, every piece is its own one-sided transfer.
func BenchmarkAblationLevel1(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "coalesced"
		if disable {
			name = "perPiece"
		}
		b.Run(name, func(b *testing.B) {
			w, _ := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.Level1Disabled = disable
			})
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkAblationSegmentSize varies the level-2 segment size around the
// file system stripe size — §IV.A argues the stripe (lock granularity) is
// the right choice.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, frac := range []struct {
		name string
		mul  float64
	}{{"quarterStripe", 0.25}, {"stripe", 1}, {"fourStripes", 4}} {
		b.Run(frac.name, func(b *testing.B) {
			w, _ := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.SegmentSizeMultiplier = frac.mul
			})
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkAblationPopulate compares read-side segment population at Open
// (owners read their own segments) against demand population under the
// exclusive window lock.
func BenchmarkAblationPopulate(b *testing.B) {
	for _, demand := range []bool{false, true} {
		name := "preload"
		if demand {
			name = "demand"
		}
		b.Run(name, func(b *testing.B) {
			_, r := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.DemandPopulate = demand
			})
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// BenchmarkAblationOneSided compares TCIO's one-sided transfers against an
// emulation that charges two-sided messaging costs for the same traffic.
func BenchmarkAblationOneSided(b *testing.B) {
	for _, twoSided := range []bool{false, true} {
		name := "oneSided"
		if twoSided {
			name = "twoSided"
		}
		b.Run(name, func(b *testing.B) {
			w, _ := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.EmulateTwoSided = twoSided
			})
			b.ReportMetric(w, "simMB/s")
		})
	}
}
