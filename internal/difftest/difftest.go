package difftest

import (
	"fmt"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

// CompareRun executes p to completion under the dense production selector
// and its frozen reference twin and returns a descriptive error on the first
// divergence: the full metric Report must be identical field for field
// (selection decisions, counter high-waters, hit rate, code expansion, exit
// domination, cover sets), and every selected region must match in entry,
// shape, order, and execution statistics.
func CompareRun(p *program.Program, dense, ref core.Selector) error {
	dres, derr := dynopt.Run(p, dynopt.Config{Selector: dense})
	rres, rerr := dynopt.Run(p, dynopt.Config{Selector: ref})
	if (derr == nil) != (rerr == nil) {
		return fmt.Errorf("difftest: error divergence: dense=%v ref=%v", derr, rerr)
	}
	if derr != nil {
		return fmt.Errorf("difftest: both runs failed: %w", derr)
	}
	if dres.Report != rres.Report {
		return fmt.Errorf("difftest: report divergence:\ndense: %+v\nref:   %+v", dres.Report, rres.Report)
	}
	if err := CompareCaches(dres.Cache, rres.Cache); err != nil {
		return err
	}
	return nil
}

// CompareCaches checks that two code caches selected identical regions in
// identical order with identical execution statistics.
func CompareCaches(a, b *codecache.Cache) error {
	ra, rb := a.AllRegions(), b.AllRegions()
	if len(ra) != len(rb) {
		return fmt.Errorf("difftest: region count divergence: dense=%d ref=%d", len(ra), len(rb))
	}
	for i := range ra {
		if err := compareRegion(ra[i], rb[i]); err != nil {
			return fmt.Errorf("difftest: region %d: %w", i, err)
		}
	}
	return nil
}

func compareRegion(a, b *codecache.Region) error {
	switch {
	case a.Entry != b.Entry:
		return fmt.Errorf("entry %d != %d", a.Entry, b.Entry)
	case a.Kind != b.Kind:
		return fmt.Errorf("kind %v != %v", a.Kind, b.Kind)
	case a.Cyclic != b.Cyclic:
		return fmt.Errorf("cyclic %v != %v", a.Cyclic, b.Cyclic)
	case a.SelectedSeq != b.SelectedSeq:
		return fmt.Errorf("selection order %d != %d", a.SelectedSeq, b.SelectedSeq)
	case a.CacheAddr != b.CacheAddr:
		return fmt.Errorf("cache layout %d != %d", a.CacheAddr, b.CacheAddr)
	case a.Instrs != b.Instrs, a.Stubs != b.Stubs, a.CodeBytes != b.CodeBytes:
		return fmt.Errorf("size accounting (%d,%d,%d) != (%d,%d,%d)",
			a.Instrs, a.Stubs, a.CodeBytes, b.Instrs, b.Stubs, b.CodeBytes)
	case a.Entries != b.Entries, a.Traversals != b.Traversals,
		a.CycleTraversals != b.CycleTraversals, a.ExecInstrs != b.ExecInstrs:
		return fmt.Errorf("execution stats (%d,%d,%d,%d) != (%d,%d,%d,%d)",
			a.Entries, a.Traversals, a.CycleTraversals, a.ExecInstrs,
			b.Entries, b.Traversals, b.CycleTraversals, b.ExecInstrs)
	case len(a.Blocks) != len(b.Blocks):
		return fmt.Errorf("block count %d != %d", len(a.Blocks), len(b.Blocks))
	}
	for j := range a.Blocks {
		if a.Blocks[j] != b.Blocks[j] {
			return fmt.Errorf("block %d: %+v != %+v", j, a.Blocks[j], b.Blocks[j])
		}
	}
	return nil
}

// streamEnv is a minimal core.Env for driving a selector from a synthetic
// branch stream (no interpreter behind it), used by the fuzz targets. Like
// the real simulator it tracks cache residency: while region is non-nil the
// stream walks cached blocks and the selector sees no Transfer events.
type streamEnv struct {
	prog     *program.Program
	cache    *codecache.Cache
	errs     []error
	region   *codecache.Region
	blockIdx int
}

func newStreamEnv(p *program.Program) *streamEnv {
	return &streamEnv{prog: p, cache: codecache.New(p)}
}

func (e *streamEnv) Program() *program.Program { return e.prog }
func (e *streamEnv) Cache() *codecache.Cache   { return e.cache }
func (e *streamEnv) Insert(spec codecache.Spec) (*codecache.Region, error) {
	return e.cache.Insert(spec)
}
func (e *streamEnv) Fail(err error) { e.errs = append(e.errs, err) }

// FeedStream decodes data into a branch-event stream shaped like what the
// simulator emits — targets are block leaders, sources are block-end
// instructions — and feeds it to sel through its own environment, preserving
// the simulator's invariants. ToCache is derived from the environment's own
// cache, and a taken transfer resolving to a cached region entry moves the
// stream into a cache-resident phase: subsequent records steer execution
// through the region's member blocks (trace chain, cycle branches back to
// the entry, region-to-region transitions) without any selector events,
// until a side exit to a non-cached target delivers the CacheExit the
// selector would see from the real simulator. Streams may truncate
// mid-residency, exactly as a program halting inside the cache would. It
// returns the environment for inspection.
func FeedStream(p *program.Program, sel core.Selector, data []byte) *streamEnv {
	env := newStreamEnv(p)
	leaders := p.BlockStarts()
	for i := 0; i+3 <= len(data); i += 3 {
		if env.region != nil {
			env.stepRegion(sel, leaders, data[i], data[i+2])
			continue
		}
		tgt := leaders[int(data[i])%len(leaders)]
		srcBlock := leaders[int(data[i+1])%len(leaders)]
		src := p.BlockEnd(srcBlock) - 1
		ctl := data[i+2]
		if ctl&0x80 != 0 {
			// Cache-exit event: only valid when the target is interpreted.
			if !env.cache.HasEntry(tgt) {
				sel.CacheExit(env, src, tgt)
			}
			continue
		}
		ev := core.Event{
			Src:     src,
			Tgt:     tgt,
			Kind:    streamKind(p, src),
			Taken:   ctl&1 != 0,
			ToCache: env.cache.HasEntry(tgt),
		}
		sel.Transfer(env, ev)
		if ev.Taken {
			// Enter the cache when the target is (or has just become) a
			// cached entry — checked after the selector ran, like the
			// simulator does.
			if r, ok := env.cache.Lookup(tgt); ok {
				env.region, env.blockIdx = r, 0
			}
		}
	}
	return env
}

// streamKind derives the branch kind the simulator would report for a
// taken transfer leaving the instruction at src, so synthetic streams
// carry the same Kind mix real runs do (the adaptive meta-selector
// classifies phases by it).
func streamKind(p *program.Program, src isa.Addr) vm.BranchKind {
	switch p.At(src).Op {
	case isa.Br:
		return vm.KindCond
	case isa.Call:
		return vm.KindCall
	case isa.CallInd:
		return vm.KindIndCall
	case isa.JmpInd:
		return vm.KindIndJump
	case isa.Ret:
		return vm.KindReturn
	default:
		return vm.KindJump
	}
}

// stepRegion advances one cache-resident step: sel and tgtByte steer the
// walk, and the selector only hears about it if the step exits the cache.
func (e *streamEnv) stepRegion(sel core.Selector, leaders []isa.Addr, tgtByte, ctl byte) {
	r := e.region
	cur := r.Blocks[e.blockIdx]
	src := cur.Start + isa.Addr(cur.Len) - 1
	var tgt isa.Addr
	taken := true
	switch ctl % 4 {
	case 0, 1:
		// Follow the region: the next member block, or — at the tail of a
		// trace — the cycle branch back to the entry.
		if e.blockIdx+1 < len(r.Blocks) {
			tgt, taken = r.Blocks[e.blockIdx+1].Start, ctl&1 != 0
		} else {
			tgt = r.Entry
		}
	case 2:
		// Cycle branch back to the region entry.
		tgt = r.Entry
	default:
		// Side exit toward an arbitrary block leader; targets that happen to
		// be member blocks stay internal, cached entries become
		// region-to-region transitions, anything else exits to the
		// interpreter.
		tgt = leaders[int(tgtByte)%len(leaders)]
	}
	if nextIdx, stay, _ := advance(r, e.blockIdx, tgt, taken); stay {
		e.blockIdx = nextIdx
		return
	}
	if r2, ok := e.cache.Lookup(tgt); ok {
		e.region, e.blockIdx = r2, 0
		return
	}
	e.region = nil
	sel.CacheExit(e, src, tgt)
}

// CompareStreams feeds the same synthetic stream to a dense selector and its
// reference twin and checks that they selected identical regions and report
// identical profiling statistics.
func CompareStreams(p *program.Program, dense, ref core.Selector, data []byte) error {
	denv := FeedStream(p, dense, data)
	renv := FeedStream(p, ref, data)
	if len(denv.errs) != len(renv.errs) {
		return fmt.Errorf("difftest: selector error divergence: dense=%v ref=%v", denv.errs, renv.errs)
	}
	if ds, rs := dense.Stats(), ref.Stats(); ds != rs {
		return fmt.Errorf("difftest: stats divergence: dense=%+v ref=%+v", ds, rs)
	}
	return CompareCaches(denv.cache, renv.cache)
}

// RandomParams derives varied-but-valid selection parameters from a seed so
// the random-program corpus exercises low thresholds, small history buffers
// (forcing eviction and dangling-hash paths), and tight trace limits.
func RandomParams(seed int64) core.Params {
	params := core.DefaultParams()
	params.NETThreshold = 2 + int(seed%7)
	params.LEIThreshold = 2 + int(seed%5)
	params.HistoryCap = 8 + int(seed%5)*31
	params.MaxTraceInstrs = 64 + int(seed%3)*128
	params.MaxTraceBlocks = 8 + int(seed%4)*16
	params.PhaseWindow = 32 + int(seed%6)*48
	params.PhaseDwell = 1 + int(seed%3)
	return params
}

// Pair couples a dense production selector with its frozen reference.
type Pair struct {
	Name  string
	Dense core.Selector
	Ref   core.Selector
}

// Pairs returns fresh production/reference selector pairs for every
// algorithm with a frozen reference: NET, Mojo-NET, LEI, both
// trace-combination selectors (arena-backed production vs the frozen
// per-trace-allocating map-based stack), and the adaptive meta-selector
// (in-place-Reset policy pool vs the frozen construct-fresh-on-switch
// formulation).
func Pairs(params core.Params) []Pair {
	return []Pair{
		{Name: "net", Dense: core.NewNET(params), Ref: NewRefNET(params)},
		{Name: "mojo-net", Dense: core.NewMojoNET(params, 2), Ref: NewRefMojoNET(params, 2)},
		{Name: "lei", Dense: core.NewLEI(params), Ref: NewRefLEI(params)},
		{Name: "net+comb", Dense: core.NewCombiner(core.BaseNET, params), Ref: NewRefCombiner(core.BaseNET, params)},
		{Name: "lei+comb", Dense: core.NewCombiner(core.BaseLEI, params), Ref: NewRefCombiner(core.BaseLEI, params)},
		{Name: "adaptive", Dense: core.NewAdaptive(params), Ref: NewRefPhaseSelector(params)},
	}
}
