package metrics

import (
	"sort"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Edges records (fromBlock, toBlock) leader-pair execution counts, covering
// all execution (interpreted and cached) — the paper's exit-domination
// definition considers every predecessor edge that executes (§4.1, footnote
// 5). The counts depend only on the block stream, never on the selector, so
// one table built from a recorded stream serves every replay of it
// (tracestream.Corpus carries one, and replays borrow it read-only).
//
// The table is dense: a slice indexed by the source leader address (grown
// lazily) whose cells hold the small set of observed successors with flat
// counters, so counting is an indexed load plus a short linear scan, never
// a hash. Fold is its only builder.
type Edges struct {
	cells [][]edgeCell
}

// edgeCell is one observed successor of a source block with its count.
type edgeCell struct {
	to isa.Addr
	n  uint64
}

// EnsureCap grows the table to cover source leaders below n, so folding a
// stream over a program of known address-space size never grows it.
func (e *Edges) EnsureCap(n int) {
	if n <= len(e.cells) {
		return
	}
	grown := make([][]edgeCell, n)
	copy(grown, e.cells)
	e.cells = grown
}

// reset empties the table, keeping each source's successor-cell array so a
// pooled table reaches steady state with no allocation.
func (e *Edges) reset() {
	for i := range e.cells {
		e.cells[i] = e.cells[i][:0]
	}
}

// Fold counts the control-flow edges of a batch of block events: each event
// completes the block led by the previous event's target, so the first
// event leaves the block led by pos.
//
//lint:hotpath per-batch edge counting
func (e *Edges) Fold(pos isa.Addr, events []vm.BlockEvent) {
next:
	for i := range events {
		from, to := pos, events[i].Tgt
		pos = to
		if int(from) >= len(e.cells) {
			e.EnsureCap(max(int(from)+1, 2*len(e.cells)))
		}
		cells := e.cells[from]
		for j := range cells {
			if cells[j].to == to {
				cells[j].n++
				continue next
			}
		}
		//lint:ignore hotpathalloc appends to the local alias of e.cells[from]; cells are kept by reset, so steady state never grows (TestShardSteadyStateAllocFree)
		e.cells[from] = append(cells, edgeCell{to: to, n: 1})
	}
}

// EdgeCount returns the number of times the edge executed.
func (e *Edges) EdgeCount(from, to isa.Addr) uint64 {
	if int(from) >= len(e.cells) {
		return 0
	}
	for _, cell := range e.cells[from] {
		if cell.to == to {
			return cell.n
		}
	}
	return 0
}

// PredsOf returns the distinct executed predecessor leaders for each block
// leader. It is how tests read an edge table; analysis builds the same lists
// in Analyzer.buildPreds.
//
//lint:ignore densemap test-facing reader; Analyzer.buildPreds is the dense pooled path
func (e *Edges) PredsOf() map[isa.Addr][]isa.Addr {
	//lint:ignore densemap test-facing reader; Analyzer.buildPreds is the dense pooled path
	preds := make(map[isa.Addr][]isa.Addr)
	for from, cells := range e.cells {
		for _, cell := range cells {
			preds[cell.to] = append(preds[cell.to], isa.Addr(from))
		}
	}
	for _, ps := range preds {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	}
	return preds
}

// Resident footprints of the table's two levels.
const (
	rowBytes  = int64(unsafe.Sizeof([]edgeCell(nil)))
	cellBytes = int64(unsafe.Sizeof(edgeCell{}))
)

// SizeBytes reports the table's resident footprint: the row index plus
// every successor-cell array, by capacity, since the grown backing arrays
// are what the process holds.
func (e *Edges) SizeBytes() int64 {
	n := int64(cap(e.cells)) * rowBytes
	for _, cells := range e.cells {
		n += int64(cap(cells)) * cellBytes
	}
	return n
}
