package difftest

import (
	"errors"
	"fmt"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

// This file freezes the pre-pooling trace-combination stack: per-trace
// allocating compact encodings built bit by bit, a map-indexed RegionCFG
// constructed from scratch per combination, and non-recycled observed-trace
// recorders — exactly as the production Combiner worked before the arena
// migration. It is the oracle proving that the pooled RegionCFG, and storing
// the recorded block lists in place of an encode/decode round trip, perturb
// neither the selected regions nor the Figure 18 measurements
// (ObservedBytesHighWater, ObservedTraces) nor the §4.2.3 rejoin-iteration
// histogram. Its codec is the repository's one executable Figure 14 encoder
// and decoder (compact_test.go pins it).

// refObsBranch is one branch outcome along a recorded path.
type refObsBranch struct {
	addr     isa.Addr
	taken    bool
	indirect bool
	target   isa.Addr
}

const (
	refSymIndirect = 0b01
	refSymNotTaken = 0b10
	refSymTaken    = 0b11
	refSymEnd      = 0b00

	refAddrBits = 32
)

// refBitString is the frozen append-only bit vector, one bit at a time.
type refBitString struct {
	data []byte
	n    int
}

func (b *refBitString) appendBit(bit uint) {
	if b.n%8 == 0 {
		b.data = append(b.data, 0)
	}
	if bit != 0 {
		b.data[b.n/8] |= 1 << uint(7-b.n%8)
	}
	b.n++
}

func (b *refBitString) append2(sym uint) {
	b.appendBit(sym >> 1 & 1)
	b.appendBit(sym & 1)
}

func (b *refBitString) appendAddr(a uint32) {
	for i := refAddrBits - 1; i >= 0; i-- {
		b.appendBit(uint(a >> uint(i) & 1))
	}
}

// refBitReader consumes a refBitString front to back, one bit at a time.
type refBitReader struct {
	src refBitString
	pos int
}

func (r *refBitReader) readBit() (uint, error) {
	if r.pos >= r.src.n {
		return 0, fmt.Errorf("difftest: compact trace truncated at bit %d", r.pos)
	}
	bit := uint(r.src.data[r.pos/8] >> uint(7-r.pos%8) & 1)
	r.pos++
	return bit, nil
}

func (r *refBitReader) read2() (uint, error) {
	hi, err := r.readBit()
	if err != nil {
		return 0, err
	}
	lo, err := r.readBit()
	if err != nil {
		return 0, err
	}
	return hi<<1 | lo, nil
}

func (r *refBitReader) readAddr() (uint32, error) {
	var a uint32
	for i := 0; i < refAddrBits; i++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		a = a<<1 | uint32(bit)
	}
	return a, nil
}

// refCompactTrace is the frozen Figure 14 representation, each trace owning
// its freshly allocated bit string.
type refCompactTrace struct {
	bits refBitString
}

func refEncodeTrace(branches []refObsBranch, lastAddr isa.Addr) refCompactTrace {
	var b refBitString
	for _, br := range branches {
		switch {
		case br.indirect && br.taken:
			b.append2(refSymIndirect)
			b.appendAddr(uint32(br.target))
		case !br.taken:
			b.append2(refSymNotTaken)
		default:
			b.append2(refSymTaken)
		}
	}
	b.append2(refSymEnd)
	b.appendAddr(uint32(lastAddr))
	return refCompactTrace{bits: b}
}

func (t refCompactTrace) Bytes() int { return len(t.bits.data) }

func refLastRecorded(blocks []codecache.BlockSpec) isa.Addr {
	if len(blocks) == 0 {
		return ^isa.Addr(0)
	}
	b := blocks[len(blocks)-1]
	return b.Start + isa.Addr(b.Len) - 1
}

// Decode is the frozen re-walking decoder, allocating a fresh block list.
func (t refCompactTrace) Decode(p *program.Program, head isa.Addr) (blocks []codecache.BlockSpec, closing isa.Addr, hasClosing bool, err error) {
	rd := refBitReader{src: t.bits}
	segStart := head
	pc := head
	appendSeg := func(from, through isa.Addr) {
		for b := from; ; {
			n := p.BlockLen(b)
			blocks = append(blocks, codecache.BlockSpec{Start: b, Len: n})
			end := b + isa.Addr(n)
			if end > through {
				return
			}
			b = end
		}
	}
	for steps := 0; ; steps++ {
		if steps > 1<<20 {
			return nil, 0, false, fmt.Errorf("difftest: compact trace decode did not terminate")
		}
		for !p.At(pc).IsBranch() && p.At(pc).Op != isa.Halt {
			if !p.InRange(pc + 1) {
				return nil, 0, false, fmt.Errorf("difftest: compact trace ran off program end at %d", pc)
			}
			pc++
		}
		sym, err := rd.read2()
		if err != nil {
			return nil, 0, false, err
		}
		switch sym {
		case refSymEnd:
			endAddr, err := rd.readAddr()
			if err != nil {
				return nil, 0, false, err
			}
			last := isa.Addr(endAddr)
			// refLastRecorded names the all-ones address for an empty list,
			// which a corrupt encoding can give as its end: an empty path is
			// never a closed trace.
			if len(blocks) > 0 && refLastRecorded(blocks) == last {
				return blocks, segStart, true, nil
			}
			if last >= segStart && last <= pc {
				appendSeg(segStart, last)
				return blocks, 0, false, nil
			}
			return nil, 0, false, fmt.Errorf("difftest: compact trace end %d outside segment [%d,%d]", last, segStart, pc)
		case refSymNotTaken:
			if !p.At(pc).IsConditional() {
				return nil, 0, false, fmt.Errorf("difftest: not-taken symbol at non-conditional %d", pc)
			}
			pc++
		case refSymTaken:
			in := p.At(pc)
			if in.IsIndirect() || !in.IsBranch() {
				return nil, 0, false, fmt.Errorf("difftest: taken symbol at %d (%s)", pc, in)
			}
			appendSeg(segStart, pc)
			segStart = in.Target
			pc = in.Target
		case refSymIndirect:
			tgt, err := rd.readAddr()
			if err != nil {
				return nil, 0, false, err
			}
			if !p.At(pc).IsIndirect() {
				return nil, 0, false, fmt.Errorf("difftest: indirect symbol at non-indirect %d", pc)
			}
			if !p.InRange(isa.Addr(tgt)) || !p.IsBlockStart(isa.Addr(tgt)) {
				return nil, 0, false, fmt.Errorf("difftest: indirect target %d is not a block leader", tgt)
			}
			appendSeg(segStart, pc)
			segStart = isa.Addr(tgt)
			pc = isa.Addr(tgt)
		}
	}
}

// RefBranch is one branch outcome along a recorded path, in path order.
type RefBranch struct {
	Addr     isa.Addr // the branch instruction
	Taken    bool
	Indirect bool
	Target   isa.Addr // meaningful when Taken
}

// RefObservedTrace is what the frozen combiner makes of one recorded path:
// it encodes the branch outcomes and the address of the path's last
// instruction with the frozen Figure 14 codec, then decodes the encoding by
// re-walking p from head. It returns the decoded blocks and closing
// transfer, which the combiner hands to the region CFG, and the encoding's
// byte length, which Figure 18 measures.
func RefObservedTrace(p *program.Program, head isa.Addr, branches []RefBranch, lastAddr isa.Addr) (blocks []codecache.BlockSpec, closing isa.Addr, hasClosing bool, bytes int, err error) {
	obs := make([]refObsBranch, len(branches))
	for i, br := range branches {
		obs[i] = refObsBranch{addr: br.Addr, taken: br.Taken, indirect: br.Indirect, target: br.Target}
	}
	ct := refEncodeTrace(obs, lastAddr)
	blocks, closing, hasClosing, err = ct.Decode(p, head)
	return blocks, closing, hasClosing, ct.Bytes(), err
}

// refRegionCFG is the frozen map-indexed combination CFG, built fresh per
// finalize with a recursive post-order walk and a map-based member index.
type refRegionCFG struct {
	entry  isa.Addr
	starts []isa.Addr
	index  map[isa.Addr]int
	lens   []int
	succs  [][]int
	count  []int
	marked []bool
}

func newRefRegionCFG(entry isa.Addr) *refRegionCFG {
	return &refRegionCFG{entry: entry, index: make(map[isa.Addr]int)}
}

func (g *refRegionCFG) NumBlocks() int { return len(g.starts) }

func (g *refRegionCFG) node(start isa.Addr, length int) int {
	if i, ok := g.index[start]; ok {
		return i
	}
	i := len(g.starts)
	g.index[start] = i
	g.starts = append(g.starts, start)
	g.lens = append(g.lens, length)
	g.succs = append(g.succs, nil)
	g.count = append(g.count, 0)
	g.marked = append(g.marked, false)
	return i
}

func (g *refRegionCFG) addEdge(from, to int) {
	for _, s := range g.succs[from] {
		if s == to {
			return
		}
	}
	g.succs[from] = append(g.succs[from], to)
}

func (g *refRegionCFG) AddTrace(blocks []codecache.BlockSpec, closing isa.Addr, hasClosing bool) error {
	if len(blocks) == 0 {
		return fmt.Errorf("difftest: empty observed trace")
	}
	if blocks[0].Start != g.entry {
		return fmt.Errorf("difftest: observed trace starts at %d, region entry is %d", blocks[0].Start, g.entry)
	}
	seen := make(map[int]bool, len(blocks))
	prev := -1
	for _, b := range blocks {
		id := g.node(b.Start, b.Len)
		if !seen[id] {
			seen[id] = true
			g.count[id]++
		}
		if prev >= 0 {
			g.addEdge(prev, id)
		}
		prev = id
	}
	if hasClosing {
		if to, ok := g.index[closing]; ok {
			g.addEdge(prev, to)
		}
	}
	return nil
}

func (g *refRegionCFG) MarkFrequent(tmin int) {
	for i := range g.marked {
		g.marked[i] = g.count[i] >= tmin
	}
	if len(g.marked) > 0 {
		g.marked[0] = true
	}
}

func (g *refRegionCFG) MarkRejoiningPaths() int {
	order := g.postOrder()
	markingIters := 0
	for {
		markedAny := false
		for _, i := range order {
			if g.marked[i] {
				continue
			}
			for _, s := range g.succs[i] {
				if g.marked[s] {
					g.marked[i] = true
					markedAny = true
					break
				}
			}
		}
		if !markedAny {
			return markingIters
		}
		markingIters++
	}
}

func (g *refRegionCFG) postOrder() []int {
	visited := make([]bool, len(g.starts))
	order := make([]int, 0, len(g.starts))
	var dfs func(int)
	dfs = func(i int) {
		visited[i] = true
		for _, s := range g.succs[i] {
			if !visited[s] {
				dfs(s)
			}
		}
		order = append(order, i)
	}
	if len(g.starts) > 0 {
		dfs(0)
	}
	for i := range g.starts {
		if !visited[i] {
			order = append(order, i)
		}
	}
	return order
}

func (g *refRegionCFG) BuildSpec(p *program.Program) (spec codecache.Spec, ok bool) {
	remap := make([]int, len(g.starts))
	var blocks []codecache.BlockSpec
	for i, start := range g.starts {
		if !g.marked[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(blocks)
		blocks = append(blocks, codecache.BlockSpec{Start: start, Len: g.lens[i]})
	}
	if len(blocks) == 0 {
		return codecache.Spec{}, false
	}
	succs := make([][]int, len(blocks))
	memberIdx := make(map[isa.Addr]int, len(blocks))
	for i, b := range blocks {
		memberIdx[b.Start] = i
	}
	addSucc := func(from, to int) {
		for _, s := range succs[from] {
			if s == to {
				return
			}
		}
		succs[from] = append(succs[from], to)
	}
	for i := range g.starts {
		if remap[i] < 0 {
			continue
		}
		for _, s := range g.succs[i] {
			if remap[s] >= 0 {
				addSucc(remap[i], remap[s])
			}
		}
	}
	for i, b := range blocks {
		end := b.Start + isa.Addr(b.Len)
		last := p.At(end - 1)
		if last.Op == isa.Br || last.Op == isa.Jmp || last.Op == isa.Call {
			if to, in := memberIdx[last.Target]; in {
				addSucc(i, to)
			}
		}
		if !last.EndsBlock() || last.Op == isa.Br {
			if to, in := memberIdx[end]; in {
				addSucc(i, to)
			}
		}
	}
	return codecache.Spec{
		Entry:  g.entry,
		Kind:   codecache.KindMultipath,
		Blocks: blocks,
		Succs:  succs,
	}, true
}

// refObsRecorder is the frozen observed-trace recorder: the NET tail
// recorder extended with branch-outcome capture, allocated fresh per head
// (no recycling pool).
type refObsRecorder struct {
	head          isa.Addr
	prog          *program.Program
	maxInstrs     int
	maxBlocks     int
	crossBackward bool

	blocks   []codecache.BlockSpec
	branches []refObsBranch
	instrs   int
	lastAddr isa.Addr
	cyclic   bool
	done     bool
}

func newRefObsRecorder(p *program.Program, head isa.Addr, maxInstrs, maxBlocks int) *refObsRecorder {
	r := &refObsRecorder{head: head, prog: p, maxInstrs: maxInstrs, maxBlocks: maxBlocks}
	r.appendBlock(head)
	return r
}

func (r *refObsRecorder) appendBlock(start isa.Addr) {
	n := r.prog.BlockLen(start)
	r.blocks = append(r.blocks, codecache.BlockSpec{Start: start, Len: n})
	r.instrs += n
	r.lastAddr = start + isa.Addr(n) - 1
}

func (r *refObsRecorder) contains(addr isa.Addr) bool {
	for _, b := range r.blocks {
		if b.Start == addr {
			return true
		}
	}
	return false
}

func (r *refObsRecorder) feed(ev core.Event) bool {
	if r.done {
		return true
	}
	last := r.prog.At(ev.Src)
	if ev.Src == r.lastAddr && last.IsBranch() {
		r.branches = append(r.branches, refObsBranch{
			addr:     ev.Src,
			taken:    ev.Taken,
			indirect: last.IsIndirect(),
			target:   ev.Tgt,
		})
	}
	if ev.Taken && ev.Tgt <= ev.Src {
		if !r.crossBackward || ev.Tgt == r.head {
			r.cyclic = ev.Tgt == r.head
			r.done = true
			return true
		}
	}
	if ev.Taken && ev.ToCache {
		r.done = true
		return true
	}
	if r.contains(ev.Tgt) {
		r.done = true
		return true
	}
	n := r.prog.BlockLen(ev.Tgt)
	if r.instrs+n > r.maxInstrs || len(r.blocks) >= r.maxBlocks {
		r.done = true
		return true
	}
	r.appendBlock(ev.Tgt)
	return false
}

// refFormLEITraceObserved is the frozen FORM-TRACE walk that additionally
// returns the branch outcomes along the path, as combined LEI consumes them,
// over the reference history buffer and a map-based membership set.
func refFormLEITraceObserved(p *program.Program, cache *codecache.Cache, buf *RefHistoryBuffer, start isa.Addr, old uint64, params core.Params) (spec codecache.Spec, outcomes []refObsBranch, formed bool) {
	params = withDefaults(params)
	var blocks []codecache.BlockSpec
	inTrace := make(map[isa.Addr]bool)
	instrs := 0
	cyclic := false

	appendRun := func(from, branchSrc isa.Addr) bool {
		for b := from; ; {
			if cache.HasEntry(b) {
				return false
			}
			if inTrace[b] {
				return false
			}
			n := p.BlockLen(b)
			if instrs+n > params.MaxTraceInstrs || len(blocks) >= params.MaxTraceBlocks {
				return false
			}
			blocks = append(blocks, codecache.BlockSpec{Start: b, Len: n})
			inTrace[b] = true
			instrs += n
			end := b + isa.Addr(n)
			if end-1 == branchSrc {
				return true
			}
			if end-1 > branchSrc {
				return false
			}
			lastIn := p.At(end - 1)
			if lastIn.IsBranch() && !lastIn.IsConditional() {
				return false
			}
			if lastIn.IsConditional() {
				outcomes = append(outcomes, refObsBranch{addr: end - 1, taken: false})
			}
			b = end
		}
	}

	prev := start
	for _, br := range buf.After(old) {
		if !appendRun(prev, br.Src) {
			break
		}
		in := p.At(br.Src)
		outcomes = append(outcomes, refObsBranch{
			addr:     br.Src,
			taken:    true,
			indirect: in.IsIndirect(),
			target:   br.Tgt,
		})
		if inTrace[br.Tgt] {
			cyclic = br.Tgt == start
			break
		}
		prev = br.Tgt
	}
	if len(blocks) == 0 {
		return codecache.Spec{}, nil, false
	}
	if blocks[0].Start != start {
		panic(fmt.Sprintf("difftest: LEI trace head %d != start %d", blocks[0].Start, start))
	}
	spec = codecache.Spec{
		Entry:  start,
		Kind:   codecache.KindTrace,
		Blocks: blocks,
		Cyclic: cyclic,
	}
	return spec, outcomes, true
}

// RefCombiner is the frozen trace-combination selector: the production
// Combiner verbatim as it was before the arena/pool migration — map-based
// observed storage holding per-trace allocated compact encodings, a fresh
// map-indexed RegionCFG per combination, fresh recorders, and bit-at-a-time
// coding — over the reference counter pool and history buffer. It reports
// the production Name so full Reports compare equal.
type RefCombiner struct {
	params   core.Params
	base     core.BaseAlgorithm
	tStart   int
	counters *RefCounterPool

	observed   map[isa.Addr][]refCompactTrace
	curBytes   int
	highBytes  int
	nObserved  uint64
	iterations [3]uint64

	recording map[isa.Addr]*refObsRecorder
	order     []isa.Addr
	combining map[isa.Addr]bool

	buf *RefHistoryBuffer
}

// NewRefCombiner returns the reference trace-combination selector.
func NewRefCombiner(base core.BaseAlgorithm, params core.Params) *RefCombiner {
	params = withDefaults(params)
	c := &RefCombiner{
		params:    params,
		base:      base,
		counters:  NewRefCounterPool(),
		observed:  make(map[isa.Addr][]refCompactTrace),
		recording: make(map[isa.Addr]*refObsRecorder),
		combining: make(map[isa.Addr]bool),
	}
	switch base {
	case core.BaseNET:
		c.tStart = params.NETThreshold - params.TProf
	case core.BaseLEI:
		c.tStart = params.LEIThreshold - params.TProf
		c.buf = NewRefHistoryBuffer(params.HistoryCap)
	}
	if c.tStart < 1 {
		c.tStart = 1
	}
	return c
}

// Name implements core.Selector, matching the production names.
func (c *RefCombiner) Name() string {
	if c.base == core.BaseNET {
		return "net+comb"
	}
	return "lei+comb"
}

// Transfer implements core.Selector.
func (c *RefCombiner) Transfer(env core.Env, ev core.Event) {
	if c.base == core.BaseNET {
		c.feedRecorders(env, ev)
		if !ev.Taken || ev.ToCache {
			return
		}
		if ev.Backward() {
			c.qualifyNET(env, ev)
		}
		return
	}
	c.transferLEI(env, ev)
}

// CacheExit implements core.Selector.
func (c *RefCombiner) CacheExit(env core.Env, src, tgt isa.Addr) {
	if c.base == core.BaseNET {
		c.qualifyNET(env, core.Event{Tgt: tgt, Taken: true})
		return
	}
	c.observeLEI(env, src, tgt, profile.KindExit)
}

func (c *RefCombiner) qualifyNET(env core.Env, ev core.Event) {
	tgt := ev.Tgt
	if c.combining[tgt] {
		return
	}
	if env.Cache().HasEntry(tgt) {
		return
	}
	n := c.counters.Incr(tgt)
	if n > c.tStart {
		if _, active := c.recording[tgt]; !active {
			c.recording[tgt] = newRefObsRecorder(env.Program(), tgt, c.params.MaxTraceInstrs, c.params.MaxTraceBlocks)
			c.order = append(c.order, tgt)
		}
	}
	if n >= c.tStart+c.params.TProf {
		c.counters.Release(tgt)
		c.combining[tgt] = true
		if _, active := c.recording[tgt]; !active {
			c.finalize(env, tgt)
		}
	}
}

func (c *RefCombiner) feedRecorders(env core.Env, ev core.Event) {
	if len(c.recording) == 0 {
		return
	}
	kept := c.order[:0]
	for _, head := range c.order {
		r := c.recording[head]
		if !r.feed(ev) {
			kept = append(kept, head)
			continue
		}
		delete(c.recording, head)
		c.store(head, refEncodeTrace(r.branches, r.lastAddr))
		if c.combining[head] {
			c.finalize(env, head)
		}
	}
	c.order = kept
}

func (c *RefCombiner) transferLEI(env core.Env, ev core.Event) {
	if !ev.Taken {
		return
	}
	if ev.ToCache {
		c.buf.Insert(ev.Src, ev.Tgt, profile.KindEnter)
		return
	}
	c.observeLEI(env, ev.Src, ev.Tgt, profile.KindInterp)
}

func (c *RefCombiner) observeLEI(env core.Env, src, tgt isa.Addr, kind profile.EntryKind) {
	old, completed := refLEICycle(c.buf, src, tgt, kind, c.params)
	if !completed {
		return
	}
	n := c.counters.Incr(tgt)
	if n <= c.tStart {
		return
	}
	if spec, outcomes, formed := refFormLEITraceObserved(env.Program(), env.Cache(), c.buf, tgt, old, c.params); formed {
		lastBlock := spec.Blocks[len(spec.Blocks)-1]
		lastAddr := lastBlock.Start + isa.Addr(lastBlock.Len) - 1
		c.store(tgt, refEncodeTrace(outcomes, lastAddr))
	}
	if n >= c.tStart+c.params.TProf {
		c.counters.Release(tgt)
		c.buf.TruncateAfter(old)
		c.finalize(env, tgt)
	}
}

func (c *RefCombiner) store(tgt isa.Addr, ct refCompactTrace) {
	c.observed[tgt] = append(c.observed[tgt], ct)
	c.curBytes += ct.Bytes()
	if c.curBytes > c.highBytes {
		c.highBytes = c.curBytes
	}
	c.nObserved++
}

func (c *RefCombiner) finalize(env core.Env, head isa.Addr) {
	delete(c.combining, head)
	traces := c.observed[head]
	delete(c.observed, head)
	for _, t := range traces {
		c.curBytes -= t.Bytes()
	}
	if len(traces) == 0 {
		return
	}
	g := newRefRegionCFG(head)
	for _, ct := range traces {
		blocks, closing, hasClosing, err := ct.Decode(env.Program(), head)
		if err != nil {
			env.Fail(errors.Join(fmt.Errorf("refcombiner: decoding observed trace at %d", head), err))
			return
		}
		if len(blocks) == 0 {
			continue
		}
		if err := g.AddTrace(blocks, closing, hasClosing); err != nil {
			env.Fail(err)
			return
		}
	}
	if g.NumBlocks() == 0 {
		return
	}
	g.MarkFrequent(c.params.TMin)
	if !c.params.AblateRejoinPaths {
		iters := g.MarkRejoiningPaths()
		if iters > 2 {
			iters = 2
		}
		c.iterations[iters]++
	}
	spec, ok := g.BuildSpec(env.Program())
	if !ok {
		return
	}
	if env.Cache().HasEntry(spec.Entry) {
		return
	}
	if _, err := env.Insert(spec); err != nil {
		env.Fail(errors.Join(errors.New("refcombiner: inserting region"), err))
	}
}

// Stats implements core.Selector.
func (c *RefCombiner) Stats() core.ProfileStats {
	s := core.ProfileStats{
		CountersHighWater:      c.counters.HighWater(),
		CounterAllocs:          c.counters.Allocations(),
		ObservedBytesHighWater: c.highBytes,
		ObservedTraces:         c.nObserved,
	}
	if c.buf != nil {
		s.HistoryCap = c.buf.Cap()
	}
	return s
}

// RejoinIterations mirrors the production accessor for the §4.2.3 histogram.
func (c *RefCombiner) RejoinIterations() [3]uint64 { return c.iterations }
