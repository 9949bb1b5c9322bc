package cache

import (
	"cmp"
	"fmt"
	"slices"
)

// StorageLayout is the immutable geometry of a persistent storage tier below
// DRAM. Address windows of the simulated address space (the decoded image of
// a stored column, and optionally its packed image) map to logical blocks —
// the unit of transfer — each with its encoded transfer size; the layout
// also carries the tier's pricing. It is validated once, when built, and
// only read afterwards, so every StorageSet view minted from it (one per
// simulated core, one per served submission) shares it, host-concurrently.
type StorageLayout struct {
	cfg StorageConfig
	// ranges map address windows to logical blocks, sorted by base and
	// non-overlapping.
	ranges    []storRange
	costBytes []uint64
}

// StorageWindow maps the address window [Base, Base+Span) to a logical
// block. Several windows may share a block (a column block's decoded and
// packed images are one residency unit).
type StorageWindow struct {
	Base, Span uint64
	Block      int
}

// NewStorageLayout builds and validates a tier layout. costBytes gives each
// logical block's encoded transfer size (block ids are its indices); the
// layout keeps the slice, so the caller must not modify it afterwards.
// Zero-span windows are ignored; a window naming an unknown block or
// overlapping another window is an error.
func NewStorageLayout(cfg StorageConfig, costBytes []uint64, windows []StorageWindow) (*StorageLayout, error) {
	if cfg.BytesPerCycle == 0 {
		cfg.BytesPerCycle = 1
	}
	ranges := make([]storRange, 0, len(windows))
	for _, w := range windows {
		if w.Block < 0 || w.Block >= len(costBytes) {
			return nil, fmt.Errorf("cache: storage window at %#x names unknown block %d", w.Base, w.Block)
		}
		if w.Span == 0 {
			continue
		}
		ranges = append(ranges, storRange{base: w.Base, end: w.Base + w.Span, block: int32(w.Block)})
	}
	slices.SortFunc(ranges, func(a, b storRange) int { return cmp.Compare(a.base, b.base) })
	for i := 1; i < len(ranges); i++ {
		if ranges[i].base < ranges[i-1].end {
			return nil, fmt.Errorf("cache: storage windows overlap at %#x", ranges[i].base)
		}
	}
	return &StorageLayout{cfg: cfg, ranges: ranges, costBytes: costBytes}, nil
}

// NumBlocks returns the logical block count.
func (l *StorageLayout) NumBlocks() int { return len(l.costBytes) }

// NewSet mints a tier view over the layout: no block resident, counters
// zero. Its residency state is sized exactly to the layout's blocks.
func (l *StorageLayout) NewSet() *StorageSet {
	n := len(l.costBytes)
	// The LRU links of a non-resident block are never read (fetch writes
	// both before linking it), so they start zero rather than -1.
	links := make([]int32, 2*n)
	return &StorageSet{
		lay:       l,
		lastRange: -1,
		resident:  make([]bool, n),
		prev:      links[:n:n],
		next:      links[n:],
		head:      -1,
		tail:      -1,
	}
}

// findRange locates the window containing addr, or -1.
func (l *StorageLayout) findRange(addr uint64) int {
	lo, hi := 0, len(l.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.ranges[mid].end <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.ranges) && addr >= l.ranges[lo].base {
		return lo
	}
	return -1
}

// StorageSet is one view of a storage tier: the residency and counters of
// one simulated core (or one served submission's core) over a shared
// StorageLayout. Whenever a demand or prefetch access misses all the way to
// memory, the hierarchy consults the set: if the line belongs to a block
// that is not resident in the DRAM budget, the access additionally pays a
// block fetch (seek latency plus the block's encoded bytes over the tier
// bandwidth) and the block becomes resident, evicting least-recently-used
// blocks past the budget.
//
// The tier is an observer: it never changes which cache level satisfies an
// access, which lines are installed, or any PMU-visible counter — it only
// adds whole stall cycles. That is the bit-identity contract: a run over
// stored data retires the identical instruction and event stream as the
// in-RAM run and differs in cycles by exactly the accumulated storage
// stalls.
type StorageSet struct {
	lay *StorageLayout
	// lastRange memoizes the previously matched range (scans touch blocks
	// in long sequential runs).
	lastRange int

	// Per logical block residency/LRU state. The LRU is an intrusive
	// doubly-linked list over resident blocks (head = MRU).
	resident   []bool
	prev, next []int32
	head, tail int32

	residentBytes uint64
	ctr           StorageCounters

	// obs, when non-nil, is notified of fetches and evictions (see
	// StorageObserver). Purely observational: set after counter updates.
	obs StorageObserver
}

// Layout returns the shared geometry the view prices against.
func (s *StorageSet) Layout() *StorageLayout { return s.lay }

// StorageConfig prices the tier.
type StorageConfig struct {
	// LatencyCycles is the fixed cost of one block fetch (the seek).
	LatencyCycles uint64
	// BytesPerCycle is the transfer bandwidth (minimum 1).
	BytesPerCycle uint64
	// BudgetBytes bounds the resident set, in encoded bytes; 0 = unbounded.
	BudgetBytes uint64
}

// StorageEventKind discriminates the tier events an observer can receive.
type StorageEventKind uint8

// Storage event kinds.
const (
	// StorageFetch is a block transfer from the tier (carries bytes + stall).
	StorageFetch StorageEventKind = iota
	// StorageEvict is a block dropped to fit the budget.
	StorageEvict
)

// StorageObserver receives tier events as they are priced: the block id, the
// encoded bytes moved (fetches only), and the stall cycles charged. Observers
// must be pure with respect to the simulation — the set calls them after all
// counter updates, and they see exactly the deterministic per-core event
// order. Per-access hits are not reported (residency is visible through
// Counters); fetch/evict traffic is bounded by the block count per pass.
type StorageObserver func(kind StorageEventKind, block int, bytes, stall uint64)

// SetObserver installs (or, with nil, removes) the tier event observer.
func (s *StorageSet) SetObserver(obs StorageObserver) { s.obs = obs }

// StorageCounters are the tier's monotonic statistics.
type StorageCounters struct {
	// BlockFetches counts block transfers from the tier.
	BlockFetches uint64
	// BlockHits counts accesses to already-resident blocks.
	BlockHits uint64
	// BytesFetched sums the encoded bytes of every fetch.
	BytesFetched uint64
	// Evictions counts blocks dropped to fit the budget.
	Evictions uint64
	// StallCycles sums the stall cycles charged for fetches.
	StallCycles uint64
}

// Sub returns a - b, counter-wise.
func (a StorageCounters) Sub(b StorageCounters) StorageCounters {
	return StorageCounters{
		BlockFetches: a.BlockFetches - b.BlockFetches,
		BlockHits:    a.BlockHits - b.BlockHits,
		BytesFetched: a.BytesFetched - b.BytesFetched,
		Evictions:    a.Evictions - b.Evictions,
		StallCycles:  a.StallCycles - b.StallCycles,
	}
}

// Add returns a + b, counter-wise.
func (a StorageCounters) Add(b StorageCounters) StorageCounters {
	return StorageCounters{
		BlockFetches: a.BlockFetches + b.BlockFetches,
		BlockHits:    a.BlockHits + b.BlockHits,
		BytesFetched: a.BytesFetched + b.BytesFetched,
		Evictions:    a.Evictions + b.Evictions,
		StallCycles:  a.StallCycles + b.StallCycles,
	}
}

type storRange struct {
	base, end uint64
	block     int32
}

// Touch observes a memory-level access to addr and returns the stall cycles
// it causes: zero for addresses outside every registered window or within a
// resident block, the fetch cost otherwise. Resident blocks are bumped to
// MRU either way.
func (s *StorageSet) Touch(addr uint64) uint64 {
	ranges := s.lay.ranges
	ri := s.lastRange
	if ri < 0 || addr < ranges[ri].base || addr >= ranges[ri].end {
		ri = s.lay.findRange(addr)
		if ri < 0 {
			return 0
		}
		s.lastRange = ri
	}
	b := ranges[ri].block
	if s.resident[b] {
		s.ctr.BlockHits++
		s.bumpMRU(b)
		return 0
	}
	return s.fetch(b)
}

// fetch transfers block b in, evicting past the budget, and returns the
// stall cycles charged.
func (s *StorageSet) fetch(b int32) uint64 {
	cfg := &s.lay.cfg
	cost := s.lay.costBytes[b]
	stall := cfg.LatencyCycles + (cost+cfg.BytesPerCycle-1)/cfg.BytesPerCycle
	s.ctr.BlockFetches++
	s.ctr.BytesFetched += cost
	s.ctr.StallCycles += stall

	s.resident[b] = true
	s.residentBytes += cost
	s.prev[b] = -1
	s.next[b] = s.head
	if s.head >= 0 {
		s.prev[s.head] = b
	}
	s.head = b
	if s.tail < 0 {
		s.tail = b
	}
	if s.obs != nil {
		s.obs(StorageFetch, int(b), cost, stall)
	}
	if cfg.BudgetBytes > 0 {
		for s.residentBytes > cfg.BudgetBytes && s.tail != b {
			s.evictTail()
		}
	}
	return stall
}

// bumpMRU moves resident block b to the list head.
func (s *StorageSet) bumpMRU(b int32) {
	if s.head == b {
		return
	}
	p, n := s.prev[b], s.next[b]
	if p >= 0 {
		s.next[p] = n
	}
	if n >= 0 {
		s.prev[n] = p
	}
	if s.tail == b {
		s.tail = p
	}
	s.prev[b] = -1
	s.next[b] = s.head
	if s.head >= 0 {
		s.prev[s.head] = b
	}
	s.head = b
}

// evictTail drops the LRU block.
func (s *StorageSet) evictTail() {
	b := s.tail
	if b < 0 {
		return
	}
	s.resident[b] = false
	s.residentBytes -= s.lay.costBytes[b]
	s.ctr.Evictions++
	if s.obs != nil {
		s.obs(StorageEvict, int(b), 0, 0)
	}
	p := s.prev[b]
	s.tail = p
	if p >= 0 {
		s.next[p] = -1
	} else {
		s.head = -1
	}
	s.prev[b] = -1
	s.next[b] = -1
}

// Counters returns the monotonic statistics.
func (s *StorageSet) Counters() StorageCounters { return s.ctr }

// ResidentBytes returns the bytes currently held in the DRAM budget.
func (s *StorageSet) ResidentBytes() uint64 { return s.residentBytes }

// DropResidency empties the resident set without touching counters — the
// storage-tier analogue of a cache flush, used to measure cold scans.
func (s *StorageSet) DropResidency() {
	for i := range s.resident {
		s.resident[i] = false
		s.prev[i] = -1
		s.next[i] = -1
	}
	s.head, s.tail = -1, -1
	s.residentBytes = 0
}
