// Package twolm models Intel's "memory mode" (2LM): NVRAM as main memory
// with DRAM acting as a transparent, direct-mapped, write-back,
// write-allocate hardware cache (paper §IV-A). This is the baseline
// CachedArrays is compared against in Figures 2–6.
//
// The cache has no semantic knowledge: it sees physical addresses only, so
// dead data evicted from the cache must still be written back to NVRAM, and
// its NVRAM traffic is cache-line-grained and haphazard — the two
// mechanisms behind 2LM's losses in the paper.
//
// Tag tracking granularity is configurable. Real 2LM tracks 64-byte lines;
// at terabyte scale that much tag metadata is impractical to simulate
// densely, so paper-scale runs use a larger tracking sector (default
// 64 KiB) while NVRAM *timing* is still charged at the true hardware line
// granularity (64 B) — preserving both the miss-rate shape (streaming data
// misses once per fresh byte at any granularity) and the poor NVRAM
// bandwidth of line-grained traffic.
package twolm

import (
	"fmt"

	"cachedarrays/internal/memsim"
)

// Config parameterizes the DRAM cache.
type Config struct {
	// LineSize is the tag-tracking granularity (bytes). Default 64 KiB;
	// tests use small heaps with 64 B lines.
	LineSize int64
	// HWLineBytes is the true hardware transfer granularity used for
	// NVRAM timing. Default 64.
	HWLineBytes int64
	// MetadataFrac is the extra NVRAM read traffic charged per miss as a
	// fraction of the line size, modelling the cache-line-level metadata
	// tracking the paper blames for poor bandwidth utilization.
	MetadataFrac float64
}

// DefaultConfig returns the paper-scale configuration. HWLineBytes models
// the effective NVRAM transfer granularity of the miss path: the cache
// fetches 64 B lines, but Optane's internal 256 B access plus controller
// read/write combining on streaming miss bursts make ~8 KiB the effective
// run length for bandwidth purposes.
func DefaultConfig() Config {
	return Config{LineSize: 64 << 10, HWLineBytes: 8 << 10, MetadataFrac: 1.0 / 8}
}

// Stats are the DRAM cache tag statistics of Fig. 4.
type Stats struct {
	Hits        int64 // line-granularity hits
	CleanMisses int64 // misses evicting a clean (or invalid) line
	DirtyMisses int64 // misses that forced a writeback
}

// Accesses returns the total line accesses.
func (s Stats) Accesses() int64 { return s.Hits + s.CleanMisses + s.DirtyMisses }

// HitRate returns hits / accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses())
}

// CleanMissRate returns clean misses / accesses.
func (s Stats) CleanMissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.CleanMisses) / float64(s.Accesses())
}

// DirtyMissRate returns dirty misses / accesses.
func (s Stats) DirtyMissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.DirtyMisses) / float64(s.Accesses())
}

// Sub returns s - o (diffing snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{Hits: s.Hits - o.Hits, CleanMisses: s.CleanMisses - o.CleanMisses,
		DirtyMisses: s.DirtyMisses - o.DirtyMisses}
}

// maxSets bounds tag-array memory so a mis-scaled configuration fails fast
// instead of allocating gigabytes of host memory.
const maxSets = 256 << 20

// Cache is the direct-mapped write-back DRAM cache. Addresses are physical
// addresses in the flat NVRAM-backed heap.
type Cache struct {
	cfg     Config
	fast    *memsim.Device // DRAM (the cache data array)
	slow    *memsim.Device // NVRAM (backing memory)
	numSets int64
	tags    []int64 // line index resident in each set; -1 = invalid
	dirty   []bool
	stats   Stats
	// Incremental tag-array accounting, kept in lockstep with tags/dirty
	// so occupancy and writeback queries never rescan the array.
	occupied int64 // sets holding a valid line
	dirtyCnt int64 // sets holding a dirty line
}

// New builds a cache whose data array is the fast device and whose backing
// store is the slow device.
func New(fast, slow *memsim.Device, cfg Config) (*Cache, error) {
	if cfg.LineSize <= 0 {
		return nil, fmt.Errorf("twolm: invalid line size %d", cfg.LineSize)
	}
	if cfg.HWLineBytes <= 0 {
		cfg.HWLineBytes = 64
	}
	numSets := fast.Capacity / cfg.LineSize
	if numSets <= 0 {
		return nil, fmt.Errorf("twolm: cache capacity %d below line size %d",
			fast.Capacity, cfg.LineSize)
	}
	if numSets > maxSets {
		return nil, fmt.Errorf("twolm: %d sets exceeds tag-array limit %d (raise LineSize)",
			numSets, maxSets)
	}
	c := &Cache{cfg: cfg, fast: fast, slow: slow, numSets: numSets,
		tags: make([]int64, numSets), dirty: make([]bool, numSets)}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c, nil
}

// Flush invalidates every line without writing anything back (used between
// runs; real hardware cannot do this, which is part of the point).
func (c *Cache) Flush() {
	if c.occupied == 0 && c.dirtyCnt == 0 {
		return // nothing valid: the tag array is already all-invalid
	}
	for i := range c.tags {
		c.tags[i] = -1
		c.dirty[i] = false
	}
	c.occupied, c.dirtyCnt = 0, 0
}

// ResetStats zeroes the tag statistics.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Stats returns a snapshot of the tag statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineSize returns the tag-tracking granularity.
func (c *Cache) LineSize() int64 { return c.cfg.LineSize }

// OccupiedLines returns how many sets hold a valid line. The count is
// maintained incrementally by Access, so this is O(1).
func (c *Cache) OccupiedLines() int64 { return c.occupied }

// Cost breaks an access's service time into overlappable components.
type Cost struct {
	// App is the DRAM data-array time for the application's own bytes —
	// a streaming access that overlaps with compute like any DRAM read.
	App float64
	// FillDRAM is DRAM-side miss handling (fill writes, victim reads).
	FillDRAM float64
	// NVRAM is NVRAM-side miss handling (fill reads, metadata,
	// writeback writes).
	NVRAM float64
}

// Stall is the demand-miss stall: fill and writeback streams overlap each
// other across the two buses, but not with the kernel's compute — demand
// misses are what make hardware caching "transparent but not free".
func (c Cost) Stall() float64 {
	if c.FillDRAM > c.NVRAM {
		return c.FillDRAM
	}
	return c.NVRAM
}

// Total is the access's full serial time (App + Stall).
func (c Cost) Total() float64 { return c.App + c.Stall() }

// Add accumulates o into c componentwise.
func (c *Cost) Add(o Cost) {
	c.App += o.App
	c.FillDRAM += o.FillDRAM
	c.NVRAM += o.NVRAM
}

// Access runs the address range [addr, addr+size) through the cache as a
// read or a write, updating tag state and device traffic counters, and
// returns the modelled service-time components. The caller (the engine)
// decides how to overlap them with compute.
//
// The line range is processed as contiguous wrap-free runs over the set
// array instead of line by line: a run shares one base set, so the
// per-line modulo disappears and the classification loop is a tight
// array walk. A transfer longer than twice the cache folds its middle
// laps into closed-form miss counts (every middle line evicts the line
// this same access installed one lap earlier), so host cost is bounded
// by O(min(lines, 2·sets)) per access. Statistics, tag state and traffic
// are bit-identical to the per-line loop (see AccessReference).
func (c *Cache) Access(addr, size int64, write bool) Cost {
	if size <= 0 {
		return Cost{}
	}
	if addr < 0 || addr+size > c.slow.Capacity {
		panic(fmt.Sprintf("twolm: access [%d,%d) outside backing memory (%d)",
			addr, addr+size, c.slow.Capacity))
	}
	first := addr / c.cfg.LineSize
	last := (addr + size - 1) / c.cfg.LineSize
	n := last - first + 1
	set0 := first % c.numSets
	var hits, cleanMisses, dirtyMisses int64
	if n >= 2*c.numSets {
		// The access laps the whole cache at least twice. Only the
		// first lap sees pre-access state; every middle-lap line
		// misses on the line installed one lap earlier (same parity:
		// dirty iff this access writes), and the final lap leaves
		// the closing tag state. Count the middle arithmetically.
		h, cm, dm := c.runLines(first, set0, c.numSets, write)
		hits, cleanMisses, dirtyMisses = h, cm, dm
		middle := n - 2*c.numSets
		if write {
			dirtyMisses += middle
		} else {
			cleanMisses += middle
		}
		h, cm, dm = c.runLines(first+c.numSets+middle, (set0+middle)%c.numSets, c.numSets, write)
		hits += h
		cleanMisses += cm
		dirtyMisses += dm
	} else {
		hits, cleanMisses, dirtyMisses = c.runLines(first, set0, n, write)
	}
	c.stats.Hits += hits
	c.stats.CleanMisses += cleanMisses
	c.stats.DirtyMisses += dirtyMisses

	return c.accessCost(size, cleanMisses, dirtyMisses, write)
}

// runLines streams count consecutive lines starting at startLine (mapping
// to startSet) through the tag array, splitting at set-array wrap points
// so the inner loops index sets directly. Occupancy and dirty counters
// are maintained incrementally. Returns the hit/clean-miss/dirty-miss
// tallies.
func (c *Cache) runLines(startLine, startSet, count int64, write bool) (hits, cleanMisses, dirtyMisses int64) {
	tags, dirty := c.tags, c.dirty
	line, set := startLine, startSet
	for count > 0 {
		run := c.numSets - set
		if run > count {
			run = count
		}
		if write {
			for end := set + run; set < end; set, line = set+1, line+1 {
				if tags[set] == line {
					hits++
					if !dirty[set] {
						dirty[set] = true
						c.dirtyCnt++
					}
					continue
				}
				if tags[set] < 0 {
					cleanMisses++
					c.occupied++
					c.dirtyCnt++
				} else if dirty[set] {
					dirtyMisses++
				} else {
					cleanMisses++
					c.dirtyCnt++
				}
				tags[set] = line
				dirty[set] = true
			}
		} else {
			for end := set + run; set < end; set, line = set+1, line+1 {
				if tags[set] == line {
					hits++
					continue
				}
				if tags[set] < 0 {
					cleanMisses++
					c.occupied++
				} else if dirty[set] {
					dirtyMisses++
					dirty[set] = false
					c.dirtyCnt--
				} else {
					cleanMisses++
				}
				tags[set] = line
			}
		}
		count -= run
		set = 0
	}
	return hits, cleanMisses, dirtyMisses
}

// AccessReference is the seed per-line implementation of Access, kept as
// the equivalence baseline: property tests and the hot-path benchmarks
// verify and measure the batched Access against it. Tag state, statistics
// and modelled costs are bit-identical between the two.
func (c *Cache) AccessReference(addr, size int64, write bool) Cost {
	if size <= 0 {
		return Cost{}
	}
	if addr < 0 || addr+size > c.slow.Capacity {
		panic(fmt.Sprintf("twolm: access [%d,%d) outside backing memory (%d)",
			addr, addr+size, c.slow.Capacity))
	}
	first := addr / c.cfg.LineSize
	last := (addr + size - 1) / c.cfg.LineSize
	var hits, cleanMisses, dirtyMisses int64
	for line := first; line <= last; line++ {
		set := line % c.numSets
		if c.tags[set] == line {
			hits++
		} else {
			if c.tags[set] < 0 {
				c.occupied++
			}
			if c.tags[set] >= 0 && c.dirty[set] {
				dirtyMisses++
			} else {
				cleanMisses++
			}
			if c.dirty[set] {
				c.dirtyCnt--
			}
			c.tags[set] = line
			c.dirty[set] = false
		}
		if write && !c.dirty[set] {
			c.dirty[set] = true
			c.dirtyCnt++
		}
	}
	c.stats.Hits += hits
	c.stats.CleanMisses += cleanMisses
	c.stats.DirtyMisses += dirtyMisses

	return c.accessCost(size, cleanMisses, dirtyMisses, write)
}

// accessCost charges the modelled timing and traffic for an access of the
// given size and miss tallies.
func (c *Cache) accessCost(size, cleanMisses, dirtyMisses int64, write bool) Cost {
	// Timing and traffic. All application bytes are served by the DRAM
	// data array; misses add NVRAM fills (plus DRAM fill writes), dirty
	// misses add writebacks (DRAM victim reads plus NVRAM writes).
	misses := cleanMisses + dirtyMisses
	ls := c.cfg.LineSize
	appAcc := memsim.Access{Threads: 28, Granularity: ls}
	// NVRAM traffic moves at the hardware miss-path granularity. The
	// writeback path is controller-driven: no CPU cache allocation (so
	// no temporal-store penalty) and a small number of in-flight write
	// streams (so no parallelism collapse either) — its cost comes from
	// the short run lengths themselves.
	nvAcc := memsim.Access{Threads: 4, Granularity: c.cfg.HWLineBytes, NonTemporal: true}

	var cost Cost
	if write {
		cost.App += c.fast.Write(size, appAcc)
	} else {
		cost.App += c.fast.Read(size, appAcc)
	}
	if misses > 0 {
		fill := misses * ls
		cost.NVRAM += c.slow.Read(fill, nvAcc)
		cost.FillDRAM += c.fast.Write(fill, appAcc)
		if c.cfg.MetadataFrac > 0 {
			cost.NVRAM += c.slow.Read(int64(float64(fill)*c.cfg.MetadataFrac), nvAcc)
		}
	}
	if dirtyMisses > 0 {
		wb := dirtyMisses * ls
		cost.FillDRAM += c.fast.Read(wb, appAcc)
		cost.NVRAM += c.slow.Write(wb, nvAcc)
	}
	return cost
}

// WritebackAll flushes every dirty line to NVRAM and returns the modelled
// time; used to account end-of-run consistency if needed. The dirty count
// is already known incrementally, so a clean cache returns immediately
// and a dirty one stops scanning once the last dirty line is cleared.
func (c *Cache) WritebackAll() float64 {
	if c.dirtyCnt == 0 {
		return 0
	}
	lines := c.dirtyCnt
	remaining := lines
	for set := 0; remaining > 0; set++ {
		if c.dirty[set] {
			c.dirty[set] = false
			remaining--
		}
	}
	c.dirtyCnt = 0
	nvAcc := memsim.Access{Threads: 28, Granularity: c.cfg.HWLineBytes}
	appAcc := memsim.Access{Threads: 28, Granularity: c.cfg.LineSize}
	t := c.fast.Read(lines*c.cfg.LineSize, appAcc)
	t += c.slow.Write(lines*c.cfg.LineSize, nvAcc)
	return t
}
