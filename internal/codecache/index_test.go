package codecache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestBlockIndexMatchesMap checks the flat block index against a map over
// random block sets: BlockIndex and Contains answer as the map does at
// every address, for fresh regions and for regions recycled from the free
// list after a bounded-cache flush or a Reset, which must never find a
// block of an earlier occupant. Live regions keep answering correctly as
// later regions are inserted. A spec that repeats a block fails with the
// duplicate-block error, and the region it drew serves a later insert.
func TestBlockIndexMatchesMap(t *testing.T) {
	const n, limit = 200, 4000
	p := ladderProgram(t, n)
	rng := rand.New(rand.NewSource(1))
	c := NewBounded(p, limit)
	want := map[*Region]map[isa.Addr]int{}
	check := func(r *Region) {
		t.Helper()
		for a := isa.Addr(0); a <= isa.Addr(2*n+2); a++ {
			i, ok := want[r][a]
			if !ok {
				i = -1
			}
			if got := r.BlockIndex(a); got != i {
				t.Fatalf("region %d: BlockIndex(%d) = %d, want %d", r.SelectedSeq, a, got, i)
			}
			if got := r.Contains(a); got != ok {
				t.Fatalf("region %d: Contains(%d) = %v, want %v", r.SelectedSeq, a, got, ok)
			}
		}
	}
	recycled, dups, flushes := 0, 0, 0
	for iter := 0; iter < 3000; iter++ {
		if iter%97 == 96 {
			flushes += c.Flushes()
			c.Reset(p, limit)
		}
		k := 1 + rng.Intn(24)
		if iter%50 == 0 {
			k = 1 + rng.Intn(n)
		}
		blocks := make([]BlockSpec, k, k+1)
		members := map[isa.Addr]int{}
		for i, b := range rng.Perm(n)[:k] {
			blocks[i] = blockSpec(p, isa.Addr(2*b))
			members[blocks[i].Start] = i
		}
		if c.HasEntry(blocks[0].Start) {
			continue
		}
		if iter%7 == 0 {
			dup := blocks[rng.Intn(k)]
			spec := Spec{Entry: blocks[0].Start, Kind: KindMultipath, Blocks: append(blocks, dup), Succs: make([][]int, k+1)}
			wantErr := fmt.Sprintf("codecache: duplicate block %d in region", dup.Start)
			if _, err := c.Insert(spec); err == nil || err.Error() != wantErr {
				t.Fatalf("duplicate block: err = %v, want %q", err, wantErr)
			}
			dups++
			continue
		}
		r, err := c.Insert(Spec{Entry: blocks[0].Start, Kind: KindMultipath, Blocks: blocks, Succs: make([][]int, k)})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := want[r]; ok {
			recycled++
		}
		want[r] = members
		check(r)
		if iter%10 == 0 {
			for _, live := range c.Regions() {
				check(live)
			}
		}
	}
	if flushes += c.Flushes(); recycled == 0 || dups == 0 || flushes == 0 {
		t.Fatalf("%d recycled regions, %d duplicate specs, %d flushes: the test exercised too little",
			recycled, dups, flushes)
	}
}
