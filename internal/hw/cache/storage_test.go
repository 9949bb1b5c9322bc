package cache

import (
	"math/rand"
	"testing"
)

func storCfg() StorageConfig {
	return StorageConfig{LatencyCycles: 1000, BytesPerCycle: 8, BudgetBytes: 0}
}

// newSet builds a layout over the given block costs and windows and mints
// one view of it, failing the test if the layout is rejected.
func newSet(t *testing.T, cfg StorageConfig, costs []uint64, windows ...StorageWindow) *StorageSet {
	t.Helper()
	l, err := NewStorageLayout(cfg, costs, windows)
	if err != nil {
		t.Fatal(err)
	}
	return l.NewSet()
}

func TestStorageFetchPricing(t *testing.T) {
	// ceil(100/8) = 13
	s := newSet(t, storCfg(), []uint64{100}, StorageWindow{Base: 0x1000, Span: 0x800, Block: 0})
	want := uint64(1000 + 13)
	if got := s.Touch(0x1000); got != want {
		t.Fatalf("cold touch stall = %d, want %d", got, want)
	}
	if got := s.Touch(0x1400); got != 0 {
		t.Fatalf("resident touch stall = %d, want 0", got)
	}
	if got := s.Touch(0x999999); got != 0 {
		t.Fatalf("unmapped touch stall = %d, want 0", got)
	}
	c := s.Counters()
	if c.BlockFetches != 1 || c.BlockHits != 1 || c.BytesFetched != 100 || c.StallCycles != want {
		t.Fatalf("counters = %+v", c)
	}
}

func TestStorageZeroBandwidthDefaultsToOne(t *testing.T) {
	s := newSet(t, StorageConfig{LatencyCycles: 5}, []uint64{7}, StorageWindow{Base: 0, Span: 64, Block: 0})
	if got := s.Touch(0); got != 5+7 {
		t.Fatalf("stall = %d, want 12", got)
	}
}

func TestStorageAliasRangesShareResidency(t *testing.T) {
	// Decoded and packed images of one logical block.
	s := newSet(t, storCfg(), []uint64{64},
		StorageWindow{Base: 0x1000, Span: 0x100, Block: 0},
		StorageWindow{Base: 0x9000, Span: 0x40, Block: 0})
	if s.Touch(0x1000) == 0 {
		t.Fatal("first touch should fetch")
	}
	if got := s.Touch(0x9000); got != 0 {
		t.Fatalf("alias window touch stall = %d, want 0 (block already resident)", got)
	}
	if c := s.Counters(); c.BlockFetches != 1 || c.BlockHits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestStorageLRUEviction(t *testing.T) {
	cfg := storCfg()
	cfg.BudgetBytes = 200 // two 100-byte blocks fit
	var windows []StorageWindow
	for i := 0; i < 3; i++ {
		windows = append(windows, StorageWindow{Base: uint64(i) * 0x1000, Span: 0x100, Block: i})
	}
	s := newSet(t, cfg, []uint64{100, 100, 100}, windows...)
	s.Touch(0x0000) // fetch 0
	s.Touch(0x1000) // fetch 1
	s.Touch(0x0000) // hit 0 → MRU order: 0, 1
	s.Touch(0x2000) // fetch 2 → evicts 1 (LRU)
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if got := s.Touch(0x0000); got != 0 {
		t.Fatal("block 0 should have survived eviction")
	}
	if got := s.Touch(0x1000); got == 0 {
		t.Fatal("block 1 should have been evicted")
	}
	if s.ResidentBytes() > cfg.BudgetBytes {
		t.Fatalf("resident bytes %d exceed budget %d", s.ResidentBytes(), cfg.BudgetBytes)
	}
}

func TestStorageBudgetNeverEvictsIncomingBlock(t *testing.T) {
	cfg := storCfg()
	cfg.BudgetBytes = 50 // smaller than any block
	s := newSet(t, cfg, []uint64{100, 100},
		StorageWindow{Base: 0x0000, Span: 0x100, Block: 0},
		StorageWindow{Base: 0x1000, Span: 0x100, Block: 1})
	s.Touch(0x0000)
	if got := s.Touch(0x0000); got != 0 {
		t.Fatal("oversized block must stay resident until another fetch displaces it")
	}
	s.Touch(0x1000) // evicts block 0, keeps block 1
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if got := s.Touch(0x1000); got != 0 {
		t.Fatal("incoming block must never be evicted by its own fetch")
	}
}

func TestStorageDropResidency(t *testing.T) {
	s := newSet(t, storCfg(), []uint64{64}, StorageWindow{Base: 0, Span: 0x100, Block: 0})
	first := s.Touch(0)
	s.DropResidency()
	if s.ResidentBytes() != 0 {
		t.Fatal("resident bytes after drop")
	}
	if got := s.Touch(0); got != first {
		t.Fatalf("post-drop touch stall = %d, want %d (a fresh cold fetch)", got, first)
	}
	if c := s.Counters(); c.Evictions != 0 {
		t.Fatal("DropResidency must not count as evictions")
	}
}

// TestStorageRangeValidation: the layout constructor rejects a window over
// an unknown block and overlapping windows, and ignores zero-span windows —
// the geometry is checked once, when built, never mid-query.
func TestStorageRangeValidation(t *testing.T) {
	cfg := storCfg()
	for _, block := range []int{-1, 1, 3} {
		if _, err := NewStorageLayout(cfg, []uint64{64}, []StorageWindow{{Base: 0, Span: 64, Block: block}}); err == nil {
			t.Fatalf("window over unknown block %d accepted", block)
		}
	}
	l, err := NewStorageLayout(cfg, []uint64{64}, []StorageWindow{{Base: 0, Span: 0, Block: 0}})
	if err != nil {
		t.Fatalf("empty window should be a no-op, not an error: %v", err)
	}
	if got := l.NewSet().Touch(0); got != 0 {
		t.Fatalf("touch inside an empty window stalled %d cycles", got)
	}
	// Windows given out of address order are sorted; only a true overlap
	// is rejected (adjacent windows are fine).
	if _, err := NewStorageLayout(cfg, []uint64{64, 64}, []StorageWindow{
		{Base: 0x200, Span: 0x100, Block: 1},
		{Base: 0x100, Span: 0x100, Block: 0},
	}); err != nil {
		t.Fatalf("adjacent windows rejected: %v", err)
	}
	if _, err := NewStorageLayout(cfg, []uint64{64}, []StorageWindow{
		{Base: 0x180, Span: 0x100, Block: 0},
		{Base: 0x100, Span: 0x100, Block: 0},
	}); err == nil {
		t.Fatal("overlapping windows accepted")
	}
}

// TestStorageViewsShareLayout: views minted from one layout share its
// geometry but not residency or counters.
func TestStorageViewsShareLayout(t *testing.T) {
	l, err := NewStorageLayout(storCfg(), []uint64{64}, []StorageWindow{{Base: 0, Span: 0x100, Block: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := l.NewSet(), l.NewSet()
	if a.Layout() != l || b.Layout() != l {
		t.Fatal("views do not report their layout")
	}
	first := a.Touch(0)
	if first == 0 || a.Touch(0) != 0 {
		t.Fatal("view a: want one fetch then a hit")
	}
	if got := b.Touch(0); got != first {
		t.Fatalf("view b sees view a's residency: stall %d, want %d", got, first)
	}
	if a.Counters() != b.Counters().Add(StorageCounters{BlockHits: 1}) {
		t.Fatalf("counters leak across views: a %+v, b %+v", a.Counters(), b.Counters())
	}
}

// TestStorageObserverInvariant is the tier's bit-identity contract at the
// hierarchy level: the same access trace through two identically configured
// hierarchies — one with a storage tier attached — produces identical cache
// counters; only StorageStallCycles differs.
func TestStorageObserverInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	plain, err := NewHierarchy(hcfg())
	if err != nil {
		t.Fatal(err)
	}
	stored, err := NewHierarchy(hcfg())
	if err != nil {
		t.Fatal(err)
	}
	const blockBytes = 1 << 12
	costs := make([]uint64, 16)
	windows := make([]StorageWindow, 16)
	for i := range costs {
		costs[i] = blockBytes / 2 // "compressed" to half
		windows[i] = StorageWindow{Base: uint64(i) * blockBytes, Span: blockBytes, Block: i}
	}
	s := newSet(t, StorageConfig{LatencyCycles: 500, BytesPerCycle: 4, BudgetBytes: 1 << 14}, costs, windows...)
	stored.AttachStorage(s)

	for i := 0; i < 20000; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0: // sequential run inside the mapped region
			addr = uint64(rng.Intn(16 * blockBytes))
		case 1: // unmapped traffic
			addr = uint64(1<<20 + rng.Intn(1<<16))
		default: // hot reuse
			addr = uint64(rng.Intn(256))
		}
		a := plain.Load(addr)
		b := stored.Load(addr)
		if a != b {
			t.Fatalf("access %d: hit level diverged: %+v vs %+v", i, a, b)
		}
	}
	if plain.Counters() != stored.Counters() {
		t.Fatalf("counters diverged:\nplain  %+v\nstored %+v", plain.Counters(), stored.Counters())
	}
	if plain.StorageStallCycles() != 0 {
		t.Fatal("unattached hierarchy reports storage stalls")
	}
	st := stored.StorageStallCycles()
	if st == 0 {
		t.Fatal("attached hierarchy never charged a storage stall")
	}
	if st != s.Counters().StallCycles {
		t.Fatalf("hierarchy stalls %d != set stalls %d", st, s.Counters().StallCycles)
	}
	// ResetCounters clears PMU counters but not the storage stall clock.
	stored.ResetCounters()
	if stored.StorageStallCycles() != st {
		t.Fatal("ResetCounters cleared storage stalls")
	}
	if stored.Counters().MemAccesses != 0 {
		t.Fatal("ResetCounters left mem accesses")
	}
}

func TestStorageSequentialMemo(t *testing.T) {
	costs := make([]uint64, 4)
	windows := make([]StorageWindow, 4)
	for i := range costs {
		costs[i] = 256
		windows[i] = StorageWindow{Base: uint64(i) * 0x1000, Span: 0x1000, Block: i}
	}
	s := newSet(t, storCfg(), costs, windows...)
	// A forward scan touching every 64 bytes: exactly 4 fetches, rest hits.
	for a := uint64(0); a < 4*0x1000; a += 64 {
		s.Touch(a)
	}
	c := s.Counters()
	if c.BlockFetches != 4 {
		t.Fatalf("fetches = %d, want 4", c.BlockFetches)
	}
	if c.BlockHits != 4*0x1000/64-4 {
		t.Fatalf("hits = %d, want %d", c.BlockHits, 4*0x1000/64-4)
	}
}
