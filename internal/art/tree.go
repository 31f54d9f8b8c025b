// Package art is a miniature of the ART (Adaptive Refinement Tree)
// cosmology code used in the paper's real-application evaluation (§V.C).
//
// ART is a cell-based AMR code: the 3D volume is divided into uniform root
// cells; any cell may be refined into eight finer cells, and refinements
// are organized as octrees represented with a fully threaded tree (FTT).
// Tree structure changes during the run, so trees differ in depth and size,
// and a checkpoint consists of many variable-size records — per-level
// structure arrays and per-variable value arrays — that are adjacent in the
// file. No single MPI derived datatype can describe this layout, which is
// precisely why the paper evaluates TCIO against vanilla MPI-IO here:
// OCIO's file views cannot express it.
//
// The mini-app reproduces the I/O-relevant behaviour faithfully:
//
//   - trees are generated with cell counts drawn from the paper's Table IV
//     distribution (Normal, μ=2048, σ=128, seed=5, 1024 segments dealt
//     round-robin to ranks);
//   - each tree serializes to a self-describing record (header, per-level
//     refinement maps, per-level per-variable value arrays);
//   - checkpoints are written piece by piece, one small access per array.
package art

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Magic identifies a serialized FTT record.
const Magic = 0x46545431 // "FTT1"

// MaxDepth bounds tree depth; refinement stops there.
const MaxDepth = 12

// Tree is one fully threaded refinement tree rooted at a single root cell.
type Tree struct {
	ID   int64
	Vars int
	// Level l holds the cells at refinement depth l. Levels[0] is the
	// root cell. A refined cell contributes 8 children to the next level.
	Levels [][]Cell
}

// Cell is one AMR cell: a refinement flag and its variable values.
type Cell struct {
	Refined bool
	Vals    []float64
}

// NumCells reports the total cell count across all levels.
func (t *Tree) NumCells() int {
	n := 0
	for _, lv := range t.Levels {
		n += len(lv)
	}
	return n
}

// Depth reports the number of levels.
func (t *Tree) Depth() int { return len(t.Levels) }

// Generate builds a tree of roughly targetCells cells by randomly refining
// cells level by level until the budget is met. Generation is deterministic
// for a given rng state.
//
// Each level is reserved once and its cells' values are drawn into one
// slab: a cell's Vals is a capped window into its level's slab, so a tree
// costs two allocations per level instead of one per cell. The bound on a
// level's size follows from the budget: refining stops once the total
// reaches targetCells, so at most ceil((targetCells-total)/8) parents
// refine, each adding 8 cells.
func Generate(id int64, targetCells, vars int, rng *rand.Rand) *Tree {
	if targetCells < 1 {
		targetCells = 1
	}
	if vars < 1 {
		vars = 1
	}
	t := &Tree{ID: id, Vars: vars}
	// draw appends one cell of the given level to cells, drawing its vars
	// values into slab. The rng order — a cell's values in turn, between
	// its parent's refinement draws — fixes the checkpoint bytes.
	draw := func(cells []Cell, slab []float64, level int) ([]Cell, []float64) {
		base := float64(id)*1e6 + float64(level)*1e3
		at := len(slab)
		for v := 0; v < vars; v++ {
			slab = append(slab, base+rng.Float64())
		}
		return append(cells, Cell{Vals: slab[at : at+vars : at+vars]}), slab
	}
	root, _ := draw(make([]Cell, 0, 1), make([]float64, 0, vars), 0)
	t.Levels = [][]Cell{root}
	total := 1
	for level := 0; total < targetCells && level < MaxDepth-1; level++ {
		cur := t.Levels[level]
		bound := 8 * min(len(cur), (targetCells-total+7)/8)
		next, slab := make([]Cell, 0, bound), make([]float64, 0, bound*vars)
		for i := range cur {
			if total >= targetCells {
				break
			}
			// Refine with decreasing probability by depth, so trees get
			// the top-heavy shape of AMR hierarchies.
			if rng.Float64() < 0.9 {
				cur[i].Refined = true
				for c := 0; c < 8; c++ {
					next, slab = draw(next, slab, level+1)
				}
				total += 8
			}
		}
		if len(next) == 0 {
			break
		}
		t.Levels = append(t.Levels, next)
	}
	return t
}

// Equal reports whether two trees are structurally and numerically equal.
func (t *Tree) Equal(o *Tree) bool {
	if t.ID != o.ID || t.Vars != o.Vars || len(t.Levels) != len(o.Levels) {
		return false
	}
	for l := range t.Levels {
		if len(t.Levels[l]) != len(o.Levels[l]) {
			return false
		}
		for i := range t.Levels[l] {
			a, b := t.Levels[l][i], o.Levels[l][i]
			if a.Refined != b.Refined || len(a.Vals) != len(b.Vals) {
				return false
			}
			for v := range a.Vals {
				if a.Vals[v] != b.Vals[v] {
					return false
				}
			}
		}
	}
	return true
}

// Piece is one serialized array of a tree record: the unit of I/O the
// application issues. Off is the byte offset within the record.
type Piece struct {
	Name string
	Off  int64
	Data []byte
}

// headerSize is the fixed-size record header: magic, id, vars, depth,
// then MaxDepth level counts (zero-padded).
const headerSize = 4 + 8 + 4 + 4 + 4*MaxDepth

// EncodedSize reports the serialized record length.
func (t *Tree) EncodedSize() int64 {
	n := int64(headerSize)
	for _, lv := range t.Levels {
		n += int64(len(lv))                     // refinement map, one byte per cell
		n += int64(len(lv)) * int64(t.Vars) * 8 // value arrays
	}
	return n
}

// Pieces decomposes the record into its constituent arrays, in file order:
// header, then per level a refinement map and Vars value arrays. This is
// the sequence of individual I/O calls ART issues per tree. The pieces are
// windows into one encoded record, not one buffer each.
func (t *Tree) Pieces() []Piece {
	rec := t.Encode()
	pieces := make([]Piece, 0, 1+len(t.Levels)*(1+t.Vars))
	pieces = append(pieces, Piece{Name: "header", Off: 0, Data: rec[:headerSize:headerSize]})
	off := int64(headerSize)
	for l, lv := range t.Levels {
		n := int64(len(lv))
		pieces = append(pieces, Piece{Name: fmt.Sprintf("refine[%d]", l), Off: off, Data: rec[off : off+n : off+n]})
		off += n
		for v := 0; v < t.Vars; v++ {
			pieces = append(pieces, Piece{Name: fmt.Sprintf("var%d[%d]", v, l), Off: off, Data: rec[off : off+8*n : off+8*n]})
			off += 8 * n
		}
	}
	return pieces
}

// Encode serializes the record densely: the header, then per level the
// refinement map (one byte per cell) and the Vars value arrays.
func (t *Tree) Encode() []byte {
	out := make([]byte, t.EncodedSize())
	binary.LittleEndian.PutUint32(out[0:], Magic)
	binary.LittleEndian.PutUint64(out[4:], uint64(t.ID))
	binary.LittleEndian.PutUint32(out[12:], uint32(t.Vars))
	binary.LittleEndian.PutUint32(out[16:], uint32(len(t.Levels)))
	for l, lv := range t.Levels {
		binary.LittleEndian.PutUint32(out[20+4*l:], uint32(len(lv)))
	}
	off := headerSize
	for _, lv := range t.Levels {
		for i, cell := range lv {
			if cell.Refined {
				out[off+i] = 1
			}
		}
		off += len(lv)
		for v := 0; v < t.Vars; v++ {
			for i, cell := range lv {
				binary.LittleEndian.PutUint64(out[off+8*i:], uint64FromFloat(cell.Vals[v]))
			}
			off += 8 * len(lv)
		}
	}
	return out
}

// DecodeHeader parses a record header, returning vars and level counts.
func DecodeHeader(hdr []byte) (id int64, vars int, counts []int, err error) {
	if len(hdr) < headerSize {
		return 0, 0, nil, fmt.Errorf("art: header needs %d bytes, have %d", headerSize, len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return 0, 0, nil, fmt.Errorf("art: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	id = int64(binary.LittleEndian.Uint64(hdr[4:]))
	vars = int(binary.LittleEndian.Uint32(hdr[12:]))
	depth := int(binary.LittleEndian.Uint32(hdr[16:]))
	if depth < 1 || depth > MaxDepth {
		return 0, 0, nil, fmt.Errorf("art: depth %d out of range", depth)
	}
	counts = make([]int, depth)
	for l := 0; l < depth; l++ {
		counts[l] = int(binary.LittleEndian.Uint32(hdr[20+4*l:]))
	}
	return id, vars, counts, nil
}

// Decode reconstructs a tree from its serialized record. Each level's
// values land in one slab, windowed per cell as Generate does.
func Decode(rec []byte) (*Tree, error) {
	id, vars, counts, err := DecodeHeader(rec)
	if err != nil {
		return nil, err
	}
	t := &Tree{ID: id, Vars: vars, Levels: make([][]Cell, 0, len(counts))}
	off := int64(headerSize)
	// cellBytes is one cell's share of a level: its refinement byte and
	// its values. Dividing the remaining bytes by it, rather than
	// multiplying the header's counts, keeps a corrupt count from
	// overflowing the truncation check.
	cellBytes := 1 + 8*int64(vars)
	for _, n := range counts {
		if int64(n) > (int64(len(rec))-off)/cellBytes {
			return nil, fmt.Errorf("art: record truncated at level with %d cells", n)
		}
		cells := make([]Cell, n)
		slab := make([]float64, n*vars)
		for i := 0; i < n; i++ {
			cells[i].Refined = rec[off+int64(i)] == 1
			cells[i].Vals = slab[i*vars : (i+1)*vars : (i+1)*vars]
		}
		off += int64(n)
		for v := 0; v < vars; v++ {
			for i := 0; i < n; i++ {
				slab[i*vars+v] = floatFromUint64(binary.LittleEndian.Uint64(rec[off+int64(8*i):]))
			}
			off += int64(8 * n)
		}
		t.Levels = append(t.Levels, cells)
	}
	return t, nil
}

// SegmentSizes draws n segment lengths (cell counts) from the paper's
// Table IV distribution: Normal(mu, sigma) with the given seed. Values are
// clamped to at least 1 cell.
func SegmentSizes(n int, mu, sigma float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		v := int(rng.NormFloat64()*sigma + mu)
		if v < 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// TableIV holds the paper's segment-generation parameters.
var TableIV = struct {
	Segments int
	Mu       float64
	Sigma    float64
	Seed     int64
}{Segments: 1024, Mu: 2048, Sigma: 128, Seed: 5}

// TreeRNG derives a deterministic per-tree random stream, so a tree's
// contents do not depend on which rank materializes it.
func TreeRNG(seed, id int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + id + 1))
}

// OwnedBy reports the tree indices assigned to rank under round-robin
// dealing of n trees across procs ranks.
func OwnedBy(n, procs, rank int) []int {
	var out []int
	for i := rank; i < n; i += procs {
		out = append(out, i)
	}
	return out
}

func uint64FromFloat(f float64) uint64 { return math.Float64bits(f) }

func floatFromUint64(b uint64) float64 { return math.Float64frombits(b) }
