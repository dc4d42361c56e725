// Package codecache models the software code cache of a trace-based
// dynamic optimization system (paper §2.1): regions of copied application
// code, the exit stubs that leave them, the entry lookup table, and the
// accounting (instructions copied, stubs, bytes, executions, transitions)
// from which all of the paper's memory and locality metrics derive.
//
// As in the paper's framework, the cache is unbounded by default; a bounded
// variant with full-flush eviction is provided as an extension.
package codecache

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
)

// StubBytes is the conservative per-exit-stub size estimate the paper uses
// when computing cache sizes: "we conservatively add 10 bytes for each exit
// stub" (§4.3.4).
const StubBytes = 10

// PageBytes is the virtual-memory page size used to quantify trace
// separation: the paper's §1 observes that a related trace selected later
// is "inserted far from the original trace, potentially on a separate
// virtual memory page".
const PageBytes = 4096

// Kind distinguishes single-path traces from combined multi-path regions.
type Kind uint8

const (
	// KindTrace is a single interprocedural path (a superblock): one entry,
	// blocks executed in sequence, optionally ending with a branch back to
	// the head (a spanned cycle).
	KindTrace Kind = iota
	// KindMultipath is a region with internal split and join points,
	// produced by trace combination (paper §4).
	KindMultipath
)

// String names the kind.
func (k Kind) String() string {
	if k == KindTrace {
		return "trace"
	}
	return "multipath"
}

// BlockSpec names one static program basic block included in a region.
type BlockSpec struct {
	// Start is the block's leader address in the original program.
	Start isa.Addr
	// Len is the block's instruction count.
	Len int
}

// Spec describes a region to insert. Blocks[0] must be the entry block.
// For KindTrace the blocks form a chain in order; Cyclic records that the
// final block ends with a branch back to the entry (a spanned cycle).
// For KindMultipath, Succs[i] lists the in-region successor block indices
// of block i; Cyclic is ignored (derived from edges to block 0).
type Spec struct {
	Entry  isa.Addr
	Kind   Kind
	Blocks []BlockSpec
	Succs  [][]int
	Cyclic bool
}

// ID identifies a live region within a cache: it indexes the current
// regions slice. After a bounded-cache flush, IDs are reused by new
// regions; SelectedSeq is the stable global selection order.
type ID int

// Region is an immutable selected region plus its mutable execution
// statistics.
type Region struct {
	ID   ID
	Kind Kind
	// Entry is the region's single entry point (original program address).
	Entry isa.Addr
	// Blocks are the member blocks; Blocks[0] is the entry block.
	Blocks []BlockSpec
	// Succs is the in-region adjacency (multipath regions). For traces it
	// holds the implied chain plus the cycle edge, so both kinds can be
	// inspected uniformly.
	Succs [][]int
	// Cyclic records whether the region contains an edge back to its entry
	// ("spans a cycle", §3.2.1).
	Cyclic bool
	// Instrs is the number of program instructions copied into the cache
	// for this region (code expansion contribution).
	Instrs int
	// Stubs is the number of exit stubs the region requires.
	Stubs int
	// CodeBytes is the encoded size of the copied instructions.
	CodeBytes int
	// SelectedSeq orders regions by selection time.
	SelectedSeq uint64
	// CacheAddr is the region's byte offset in the code cache. Regions are
	// placed sequentially in selection order, as Dynamo-style systems do,
	// so traces selected far apart in time land far apart in memory — the
	// paper's trace-separation problem ("potentially on a separate virtual
	// memory page", §1) becomes directly measurable.
	CacheAddr int

	// Execution statistics, maintained by the simulator.

	// Entries counts transfers of control into the region head.
	Entries uint64
	// Traversals counts completed passes through the region: each time
	// control either wraps back to the head (a cycle) or leaves.
	Traversals uint64
	// CycleTraversals counts traversals that ended by taking a branch to
	// the top of the region (executed cycles, §3.2.1).
	CycleTraversals uint64
	// ExecInstrs counts instructions executed inside the region.
	ExecInstrs uint64

	// index maps block start -> index within this region only, recycled
	// with the region through the free list.
	index        blockIndex
	blockByteOff []int // byte offset of each block in the region image
	blockBytes   []int // encoded byte size of each block
}

// BlockByteOffset returns the byte offset of block i within the region's
// cache image (blocks are laid contiguously in spec order, stubs after).
func (r *Region) BlockByteOffset(i int) int { return r.blockByteOff[i] }

// BlockBytes returns the encoded size of block i in bytes.
func (r *Region) BlockBytes(i int) int { return r.blockBytes[i] }

// NumBlocks returns the number of blocks in the region.
func (r *Region) NumBlocks() int { return len(r.Blocks) }

// BlockIndex returns the index of the block starting at addr, or -1.
func (r *Region) BlockIndex(addr isa.Addr) int { return r.index.find(addr) }

// Contains reports whether the region includes the block starting at addr.
func (r *Region) Contains(addr isa.Addr) bool { return r.BlockIndex(addr) >= 0 }

// blockIndex maps the block starts of one region to their indices: a flat
// open-addressed table with linear probing, a power of two at least twice
// the block count in size, so a lookup is one multiplicative hash and,
// almost always, one or two slot reads. Block starts are unique within a
// region (Insert rejects duplicates while it fills the table).
type blockIndex struct {
	slots []indexSlot
	shift uint8 // 32 - log2(len(slots)): keeps the hash's top bits
}

// indexSlot is one slot of a blockIndex. pos is the block's index plus one;
// zero marks an empty slot.
type indexSlot struct {
	start isa.Addr
	pos   int32
}

// reset empties the table and sizes it for n blocks, reusing its backing
// array when that is large enough.
func (x *blockIndex) reset(n int) {
	size, bits := 2, uint8(1)
	for size < 2*n {
		size <<= 1
		bits++
	}
	if cap(x.slots) >= size {
		x.slots = x.slots[:size]
		clear(x.slots)
	} else {
		x.slots = make([]indexSlot, size)
	}
	x.shift = 32 - bits
}

// add records that the block at start has index i, and reports false,
// leaving the table unchanged, when start is already present.
func (x *blockIndex) add(start isa.Addr, i int) bool {
	s := &x.slots[x.probe(start)]
	if s.pos != 0 {
		return false
	}
	*s = indexSlot{start: start, pos: int32(i + 1)}
	return true
}

// find returns the index of the block starting at addr, or -1: an absent
// addr probes to an empty slot, whose pos is zero. A table that was never
// filled (a Region built by literal) finds nothing.
func (x *blockIndex) find(addr isa.Addr) int {
	if len(x.slots) == 0 {
		return -1
	}
	return int(x.slots[x.probe(addr)].pos) - 1
}

// probe returns the slot holding addr or, when addr is absent, the empty
// slot that ends its probe sequence; a table at most half full always has
// one. The first slot is a Fibonacci hash, so nearby starts spread out.
func (x *blockIndex) probe(addr isa.Addr) int {
	mask := len(x.slots) - 1
	h := int(uint32(addr) * 0x9E3779B1 >> x.shift)
	for x.slots[h].pos != 0 && x.slots[h].start != addr {
		h = (h + 1) & mask
	}
	return h
}

// entryCell is one slot of the dense entry table. A cell names a live
// region only when its epoch matches the cache's current epoch, so Reset
// invalidates the whole table by bumping the epoch instead of rewriting it.
type entryCell struct {
	id    int32
	epoch uint32
}

// Cache is the simulated code cache.
type Cache struct {
	prog    *program.Program
	regions []*Region
	// entries maps a region entry address to its live region ID. It is a
	// dense slice indexed by instruction address so the per-block
	// Lookup/HasEntry hot path never hashes; a cell is valid only when its
	// epoch matches the cache's, which makes Reset O(1) over the table
	// (epoch-based clearing, no reallocation).
	entries []entryCell
	epoch   uint32
	seq     uint64

	// Cumulative counters. Evicted regions keep contributing: code
	// expansion measures optimizer work done, not current occupancy.
	totalInstrs    int
	totalStubs     int
	totalCodeBytes int
	flushes        int
	partitions     int

	// Limit, in estimated bytes, for the bounded-cache extension; 0 means
	// unbounded (the paper's configuration).
	limitBytes int
	liveBytes  int
	nextAddr   int // next free cache byte offset

	evicted []*Region

	// free holds recycled regions from previous runs of a pooled cache;
	// Insert draws from it before allocating, so a resettable cache reaches
	// zero steady-state allocations per promotion even under eviction-heavy
	// bounded configurations.
	free []*Region
	// allScratch backs AllRegions so repeated analyses of a cache with
	// evicted regions do not allocate; its contents are rebuilt on every
	// call, so only capacity carries information across runs.
	allScratch []*Region
}

// New returns an empty, unbounded cache for the program.
func New(p *program.Program) *Cache {
	c := &Cache{}
	c.Reset(p, 0)
	return c
}

// NewBounded returns a cache that flushes completely whenever the estimated
// occupancy would exceed limitBytes (the preemptive-flush policy studied by
// Hazelwood; an extension beyond the paper's unbounded setup).
func NewBounded(p *program.Program, limitBytes int) *Cache {
	c := &Cache{}
	c.Reset(p, limitBytes)
	return c
}

// Reset re-targets the cache to a (possibly different) program and cache
// bound, recycling every region ever selected into the free list and
// invalidating the dense entry table by epoch bump — no table rewrite, no
// reallocation. Pooled harness workers call it between back-to-back runs;
// *Region pointers and Snapshot results from the previous run become
// invalid (their backing objects will be reused by future insertions).
func (c *Cache) Reset(p *program.Program, limitBytes int) {
	c.free = append(c.free, c.regions...)
	c.free = append(c.free, c.evicted...)
	c.regions = c.regions[:0]
	c.evicted = c.evicted[:0]
	c.prog = p
	if n := p.Len(); n > len(c.entries) {
		if n <= cap(c.entries) {
			c.entries = c.entries[:n]
		} else {
			grown := make([]entryCell, n)
			copy(grown, c.entries)
			c.entries = grown
		}
	} else {
		c.entries = c.entries[:p.Len()]
	}
	c.epoch++
	if c.epoch == 0 {
		// Epoch wraparound: stale cells from 2^32 resets ago could read as
		// current. Clear once and restart at 1 (cell epoch 0 means never set).
		//lint:ignore epochguard wraparound is the one sound full clear; every 2^32 resets, not a steady-state path
		clear(c.entries)
		c.epoch = 1
	}
	c.seq = 0
	c.totalInstrs, c.totalStubs, c.totalCodeBytes = 0, 0, 0
	c.flushes = 0
	c.partitions = 0
	c.limitBytes = limitBytes
	c.liveBytes, c.nextAddr = 0, 0
	c.allScratch = c.allScratch[:0]
}

// Lookup returns the region whose entry is addr.
//
//lint:hotpath per-block entry probe
func (c *Cache) Lookup(addr isa.Addr) (*Region, bool) {
	if int(addr) >= len(c.entries) {
		return nil, false
	}
	cell := c.entries[addr]
	if cell.epoch != c.epoch {
		return nil, false
	}
	return c.regions[cell.id], true
}

// HasEntry reports whether addr begins a cached region.
//
//lint:hotpath per-block entry probe
func (c *Cache) HasEntry(addr isa.Addr) bool {
	return int(addr) < len(c.entries) && c.entries[addr].epoch == c.epoch
}

// ContainsInstr reports whether the instruction at addr has been copied
// into any live region. FORM-TRACE uses region *entries* to stop trace
// growth; this broader test supports metrics and tests.
func (c *Cache) ContainsInstr(addr isa.Addr) bool {
	for _, r := range c.regions {
		for _, b := range r.Blocks {
			if addr >= b.Start && addr < b.Start+isa.Addr(b.Len) {
				return true
			}
		}
	}
	return false
}

// newRegion returns a zeroed region, recycled from the free list when one
// is available (the blocks, adjacency, offset tables, and block index keep
// their backing storage, so steady-state insertion on a pooled cache does
// not allocate; Succs' inner []int headers stay live in its backing array).
func (c *Cache) newRegion() *Region {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		*r = Region{Blocks: r.Blocks[:0], Succs: r.Succs[:0], blockByteOff: r.blockByteOff[:0],
			blockBytes: r.blockBytes[:0], index: r.index}
		return r
	}
	return new(Region)
}

// Insert validates spec, computes its stub and size accounting, installs it,
// and returns the new region. Inserting a region whose entry is already
// cached is an error: the caller should have looked it up first.
//
//lint:hotpath steady-state insertions recycle pooled regions
func (c *Cache) Insert(spec Spec) (*Region, error) {
	r := c.newRegion()
	if err := c.validate(spec, &r.index); err != nil {
		c.free = append(c.free, r)
		return nil, err
	}
	r.Kind = spec.Kind
	r.Entry = spec.Entry
	r.Blocks = append(r.Blocks, spec.Blocks...)
	r.Cyclic = spec.Cyclic
	r.SelectedSeq = c.seq
	c.seq++
	for _, b := range r.Blocks {
		r.Instrs += b.Len
		bb := c.prog.RangeBytes(b.Start, b.Start+isa.Addr(b.Len))
		r.blockByteOff = append(r.blockByteOff, r.CodeBytes)
		r.blockBytes = append(r.blockBytes, bb)
		r.CodeBytes += bb
	}
	c.fillSuccs(r, spec)
	if spec.Kind == KindMultipath {
		r.Cyclic = false
		for _, ss := range r.Succs {
			for _, s := range ss {
				if s == 0 {
					r.Cyclic = true
				}
			}
		}
	}
	r.Stubs = c.countStubs(r)

	if c.limitBytes > 0 && c.liveBytes+r.EstimatedBytes() > c.limitBytes {
		c.flush()
	}
	// The ID indexes the live regions slice, so it is assigned only after
	// any flush has emptied it.
	r.ID = ID(len(c.regions))
	r.CacheAddr = c.nextAddr
	c.nextAddr += r.EstimatedBytes()
	c.regions = append(c.regions, r)
	c.entries[r.Entry] = entryCell{id: int32(r.ID), epoch: c.epoch}
	c.totalInstrs += r.Instrs
	c.totalStubs += r.Stubs
	c.totalCodeBytes += r.CodeBytes
	c.liveBytes += r.EstimatedBytes()
	return r, nil
}

// validate checks spec against the program and the cache, filling index
// with its blocks as it goes: the table that detects a duplicate block is
// the one the region keeps.
func (c *Cache) validate(spec Spec, index *blockIndex) error {
	if spec.Kind > KindMultipath {
		return fmt.Errorf("codecache: unknown region kind %d", spec.Kind)
	}
	if len(spec.Blocks) == 0 {
		return fmt.Errorf("codecache: empty region")
	}
	if spec.Blocks[0].Start != spec.Entry {
		return fmt.Errorf("codecache: entry %d is not the first block (%d)", spec.Entry, spec.Blocks[0].Start)
	}
	if c.HasEntry(spec.Entry) {
		return fmt.Errorf("codecache: region with entry %d already cached", spec.Entry)
	}
	index.reset(len(spec.Blocks))
	for i, b := range spec.Blocks {
		if !c.prog.IsBlockStart(b.Start) {
			return fmt.Errorf("codecache: block %d is not a program block leader", b.Start)
		}
		if got := c.prog.BlockLen(b.Start); got != b.Len {
			return fmt.Errorf("codecache: block %d has length %d, program says %d", b.Start, b.Len, got)
		}
		if !index.add(b.Start, i) {
			return fmt.Errorf("codecache: duplicate block %d in region", b.Start)
		}
	}
	if spec.Kind == KindMultipath {
		if len(spec.Succs) != len(spec.Blocks) {
			return fmt.Errorf("codecache: multipath region needs adjacency for every block")
		}
		for i, ss := range spec.Succs {
			for _, s := range ss {
				if s < 0 || s >= len(spec.Blocks) {
					return fmt.Errorf("codecache: block %d has out-of-range successor %d", i, s)
				}
			}
		}
	}
	return nil
}

// fillSuccs fills r.Succs in place with the in-region adjacency. For traces
// it materializes the chain (and cycle edge) so that analyses can treat both
// kinds alike. The outer slice and the recycled inner []int headers are
// reused within capacity, so a pooled cache fills adjacency without
// allocating in steady state.
func (c *Cache) fillSuccs(r *Region, spec Spec) {
	n := len(r.Blocks)
	if cap(r.Succs) >= n {
		r.Succs = r.Succs[:n]
	} else {
		r.Succs = append(r.Succs[:cap(r.Succs)], make([][]int, n-cap(r.Succs))...)
	}
	for i := range r.Succs {
		r.Succs[i] = r.Succs[i][:0]
	}
	if spec.Kind == KindMultipath {
		for i, ss := range spec.Succs {
			r.Succs[i] = append(r.Succs[i], ss...)
		}
		return
	}
	for i := 0; i < n; i++ {
		if i+1 < n {
			r.Succs[i] = append(r.Succs[i], i+1)
		} else if spec.Cyclic {
			r.Succs[i] = append(r.Succs[i], 0)
		}
	}
}

// InternalEdge reports whether the direction from block i to the block
// starting at tgt is covered by an in-region successor (so it needs no exit
// stub or link). Succs lists are tiny — one or two entries — so a linear
// scan beats building a set.
//
//lint:hotpath per-edge during analysis
func (r *Region) InternalEdge(i int, tgt isa.Addr) bool {
	for _, s := range r.Succs[i] {
		if r.Blocks[s].Start == tgt {
			return true
		}
	}
	return false
}

// countStubs counts the exit stubs a region requires: one for every
// control-flow direction that leaves the region. Directions covered by
// in-region successors need no stub. Indirect branches (including returns)
// always keep one stub for unexpected targets even when their observed
// target is in the region.
func (c *Cache) countStubs(r *Region) int {
	stubs := 0
	for i, b := range r.Blocks {
		end := b.Start + isa.Addr(b.Len)
		last := c.prog.At(end - 1)
		//lint:ignore hotpathalloc non-escaping closure, stack-allocated (called directly below)
		countDir := func(tgt isa.Addr) {
			if !r.InternalEdge(i, tgt) {
				stubs++
			}
		}
		switch {
		case last.Op == isa.Halt:
			// No exit.
		case last.Op == isa.Br:
			countDir(last.Target)
			countDir(end)
		case last.Op == isa.Jmp || last.Op == isa.Call:
			countDir(last.Target)
		case last.IsIndirect():
			stubs++
		default:
			// Pure fall-through block end.
			countDir(end)
		}
	}
	return stubs
}

// flush implements the bounded-cache full-flush policy.
func (c *Cache) flush() {
	c.flushes++
	c.evicted = append(c.evicted, c.regions...)
	for _, r := range c.regions {
		// Epoch 0 never matches the current epoch (it is always >= 1).
		c.entries[r.Entry] = entryCell{}
	}
	c.regions = c.regions[:0]
	c.liveBytes = 0
	c.nextAddr = 0 // the flushed cache is repopulated from its base
	// Region IDs restart; SelectedSeq keeps global ordering.
	// Callers holding *Region pointers across a flush see stale regions,
	// which is intended: their statistics remain valid for analysis.
}

// FlushPartition retires every live region without resetting the cache's
// address space: the regions move to the evicted list, their entries are
// invalidated, and live occupancy drops to zero, but — unlike the bounded
// cache's flush — nextAddr keeps advancing, so regions inserted after the
// call occupy a fresh, disjoint address range. The adaptive meta-selector
// calls this on a policy switch: the retired partition's regions stay
// visible to cumulative metrics (code expansion, per-region statistics)
// while no region selected by the outgoing policy remains reachable, and
// no future region can alias a retired one's cache address.
func (c *Cache) FlushPartition() {
	c.partitions++
	c.evicted = append(c.evicted, c.regions...)
	for _, r := range c.regions {
		// Epoch 0 never matches the current epoch (it is always >= 1).
		c.entries[r.Entry] = entryCell{}
	}
	c.regions = c.regions[:0]
	c.liveBytes = 0
}

// EstimatedBytes estimates the region's cache footprint the way the paper
// does for Figure 18: instruction bytes plus StubBytes per exit stub.
func (r *Region) EstimatedBytes() int { return r.CodeBytes + r.Stubs*StubBytes }

// Regions returns the live regions in selection order.
func (c *Cache) Regions() []*Region { return c.regions }

// AllRegions returns every region ever selected (including evicted ones),
// ordered by selection time. No sort is needed: every flush (bounded-cache
// eviction or FlushPartition) moves all live regions — already in ascending
// SelectedSeq order — onto the evicted tail, and every region selected
// afterwards gets a larger seq, so evicted followed by live is globally
// ascending. The returned slice aliases internal storage and is valid only
// until the next AllRegions, Insert, or Reset call.
func (c *Cache) AllRegions() []*Region {
	if len(c.evicted) == 0 {
		return c.regions
	}
	c.allScratch = append(c.allScratch[:0], c.evicted...)
	c.allScratch = append(c.allScratch, c.regions...)
	return c.allScratch
}

// NumRegions returns the number of regions ever selected.
func (c *Cache) NumRegions() int { return len(c.regions) + len(c.evicted) }

// TotalInstrs returns the cumulative number of program instructions copied
// into the cache — the paper's code expansion metric (§2.3).
func (c *Cache) TotalInstrs() int { return c.totalInstrs }

// TotalStubs returns the cumulative number of exit stubs created.
func (c *Cache) TotalStubs() int { return c.totalStubs }

// EstimatedBytes returns the paper's cache-size estimate over all regions
// ever selected: instruction bytes plus StubBytes per stub (§4.3.4).
func (c *Cache) EstimatedBytes() int { return c.totalCodeBytes + c.totalStubs*StubBytes }

// Flushes returns how many times the bounded cache flushed (zero when
// unbounded).
func (c *Cache) Flushes() int { return c.flushes }

// Partitions returns how many times FlushPartition retired a policy
// partition (zero outside the adaptive meta-selector).
func (c *Cache) Partitions() int { return c.partitions }

// Program returns the program this cache serves.
func (c *Cache) Program() *program.Program { return c.prog }

// CountLinks counts exit directions of live regions whose target is
// another live region's entry: the inter-region links a Dynamo-style
// system patches into exit stubs. The paper's footnote 9 ignores the
// memory such links need but argues its algorithms reduce their number.
func (c *Cache) CountLinks() int {
	links := 0
	for _, r := range c.regions {
		for i, b := range r.Blocks {
			end := b.Start + isa.Addr(b.Len)
			last := c.prog.At(end - 1)
			//lint:ignore hotpathalloc non-escaping closure, stack-allocated (called directly below)
			countDir := func(tgt isa.Addr) {
				if !r.InternalEdge(i, tgt) && c.HasEntry(tgt) && tgt != r.Entry {
					links++
				}
			}
			switch {
			case last.Op == isa.Halt:
			case last.Op == isa.Br:
				countDir(last.Target)
				countDir(end)
			case last.Op == isa.Jmp || last.Op == isa.Call:
				countDir(last.Target)
			case last.IsIndirect():
				// Indirect exits dispatch dynamically; no static link.
			default:
				countDir(end)
			}
		}
	}
	return links
}
