package metrics

import (
	"fmt"
	"io"

	"repro/internal/codecache"
	"repro/internal/isa"
)

// WriteRegionGraphDOT renders the live regions and their static links as a
// Graphviz digraph: one node per region (labelled with entry, size, and
// execution weight) and one edge per inter-region link, annotated with the
// executed edge count between the linking blocks when a collector is
// supplied (nil is allowed). Cyclic regions are drawn bold; multi-path
// regions use a 3-D box.
func WriteRegionGraphDOT(w io.Writer, cache *codecache.Cache, col *Collector) error {
	p := cache.Program()
	if _, err := fmt.Fprintln(w, "digraph regions {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")
	for _, r := range cache.Regions() {
		style := ""
		if r.Cyclic {
			style = ", style=bold"
		}
		if r.Kind == codecache.KindMultipath {
			style += ", shape=box3d"
		}
		fmt.Fprintf(w, "  r%d [label=\"R%d @%d\\n%d instrs, %d stubs\\nexec %d\"%s];\n",
			r.ID, r.ID, r.Entry, r.Instrs, r.Stubs, r.ExecInstrs, style)
	}
	for _, r := range cache.Regions() {
		for i, b := range r.Blocks {
			//lint:ignore densemap one-shot DOT rendering, not a hot path
			internal := map[isa.Addr]bool{}
			for _, s := range r.Succs[i] {
				internal[r.Blocks[s].Start] = true
			}
			end := b.Start + isa.Addr(b.Len)
			last := p.At(end - 1)
			emit := func(tgt isa.Addr) {
				if internal[tgt] {
					return
				}
				to, ok := cache.Lookup(tgt)
				if !ok || to.ID == r.ID {
					return
				}
				label := ""
				if col != nil {
					if n := col.Edges().EdgeCount(b.Start, tgt); n > 0 {
						label = fmt.Sprintf(" [label=\"%d\"]", n)
					}
				}
				fmt.Fprintf(w, "  r%d -> r%d%s;\n", r.ID, to.ID, label)
			}
			switch {
			case last.IsConditional():
				emit(last.Target)
				emit(end)
			case last.IsBranch() && !last.IsIndirect():
				emit(last.Target)
			case !last.EndsBlock():
				emit(end)
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
