package bench

import (
	"bytes"
	"testing"
)

// smallSieveOpts shrinks the sweep to test scale: 4 processes, 2 KiB of
// file, granule 64.
func smallSieveOpts() SieveOptions {
	return SieveOptions{
		Procs:       4,
		SegSize:     256,
		SegsPerRank: 2,
		HoleGranule: 64,
		Densities:   []int{25, 50},
		Budgets:     []int64{0, 1, 256},
		Granules:    []int64{64, 256},
		Scale:       4,
		Verify:      true,
	}
}

func TestSieveSweepSmall(t *testing.T) {
	opts := smallSieveOpts()
	_, points, err := Sieve(opts)
	if err != nil {
		t.Fatalf("Sieve: %v", err)
	}
	byKey := map[string]SievePoint{}
	for _, p := range points {
		if p.Result != "ok" {
			t.Errorf("point %+v: result %q", p, p.Result)
		}
		key := p.Workload
		if p.Workload == "holes" {
			key += string(rune('0'+p.HolePct/25)) + sieveBudgetLabel(opts, p.SieveBuffer/opts.Scale)
		} else {
			key += string(rune('0' + p.Granule/opts.Scale/64))
			if p.Collective {
				key += "c"
			}
		}
		byKey[key] = p
	}
	// The covering sieve must issue fewer FS reads than per-run list I/O
	// and pay for it in waste bytes.
	for _, d := range []string{"1", "2"} {
		list, sieve := byKey["holes"+d+"1(list-I/O)"], byKey["holes"+d+"1024"]
		if list.FSReads <= sieve.FSReads {
			t.Errorf("density %s: list I/O %d reads <= sieved %d", d, list.FSReads, sieve.FSReads)
		}
		if sieve.SieveWaste == 0 {
			t.Errorf("density %s: sieved cover reported no waste", d)
		}
		if list.SieveWaste != 0 {
			t.Errorf("density %s: list I/O reported waste %d", d, list.SieveWaste)
		}
	}
	// The two-phase exchange must collapse the per-rank covering reads of
	// the fine-granule interleave and be absent independently.
	indep, coll := byKey["interleave1"], byKey["interleave1c"]
	if coll.FSReads >= indep.FSReads {
		t.Errorf("interleave: collective %d reads >= independent %d", coll.FSReads, indep.FSReads)
	}
	if indep.Exchanges != 0 {
		t.Errorf("independent read reported %d exchanges", indep.Exchanges)
	}
	if coll.Exchanges == 0 {
		t.Errorf("collective read reported no exchanges")
	}
	if coll.VirtualTimeNs >= indep.VirtualTimeNs {
		t.Errorf("interleave granule 64: collective %dns not faster than independent %dns",
			coll.VirtualTimeNs, indep.VirtualTimeNs)
	}
}

func TestSieveChaosDeterministic(t *testing.T) {
	opts := smallSieveOpts()
	var out [2]bytes.Buffer
	for i := range out {
		table, err := SieveChaos(opts, 7)
		if err != nil {
			t.Fatalf("SieveChaos: %v", err)
		}
		if err := table.Render(&out[i]); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("chaos tables differ between same-seed runs:\n%s\n---\n%s", out[0].String(), out[1].String())
	}
}

func TestSieveValidate(t *testing.T) {
	opts := smallSieveOpts()
	opts.HoleGranule = 48 // does not divide SegSize
	if _, _, err := Sieve(opts); err == nil {
		t.Errorf("misaligned hole granule accepted")
	}
	opts = smallSieveOpts()
	opts.Granules = []int64{96}
	if _, _, err := Sieve(opts); err == nil {
		t.Errorf("misaligned interleave granule accepted")
	}
}
