// Package pagemig models OS-level page-based memory tiering — the
// Nimble/HeMem/Thermostat family of Table I ("Operating System / Page /
// Transparent / Virtual Memory"). It is the third data-management
// mechanism this repository compares: reactive, application-transparent
// migration of fixed-size pages based on observed hotness, with no
// knowledge of the application's future data use.
//
// The model: a flat virtual address space backed by NVRAM; a per-page
// access counter; and a periodic migration epoch that promotes the
// hottest slow pages into DRAM and demotes the coldest fast pages to make
// room, charging the migration traffic to the copy engine. Hotness decays
// each epoch so the migrator tracks phase changes — eventually. "Like
// hardware-based techniques, these works do not take into account future
// information about the data use" (paper §II), which is exactly what this
// baseline demonstrates against CachedArrays' hint-driven policy.
package pagemig

import (
	"fmt"
	"math/bits"
	"slices"

	"cachedarrays/internal/memsim"
)

// Config parameterizes the migrator.
type Config struct {
	// PageSize is the migration granularity. Default 2 MiB (the huge
	// pages tiering systems prefer; 4 KiB pages are supported but make
	// terabyte address spaces slow to simulate).
	PageSize int64
	// EpochKernels is the number of kernel launches between migration
	// epochs (the OS daemon's scan interval in kernel-time units).
	EpochKernels int
	// Decay multiplies every page's hotness at each epoch (0..1).
	Decay float64
	// PromoteMargin is how much hotter a slow page must be than the
	// fast page it would displace (hysteresis against thrashing).
	PromoteMargin float64
	// MaxMigrateBytes bounds the data moved per epoch (the daemon's
	// bandwidth budget). 0 = unlimited.
	MaxMigrateBytes int64
}

// DefaultConfig returns a HeMem-flavoured configuration.
func DefaultConfig() Config {
	return Config{
		PageSize:        2 << 20,
		EpochKernels:    25,
		Decay:           0.5,
		PromoteMargin:   1.25,
		MaxMigrateBytes: 16 << 30,
	}
}

// Stats counts migrator activity.
type Stats struct {
	Promotions    int64
	Demotions     int64
	PromotedBytes int64
	DemotedBytes  int64
	Epochs        int64
	MigrateTime   float64
}

// Migrator is the page-tiering engine over a flat address space.
type Migrator struct {
	cfg    Config
	fast   *memsim.Device
	slow   *memsim.Device
	copier *memsim.CopyEngine

	numPages  int64
	fastQuota int64 // pages that fit in DRAM
	inFast    []bool
	hot       []float64
	fastUsed  int64
	stats     Stats

	// Candidate buffers reused across epochs.
	slowBuf, fastBuf []cand
}

// New builds a migrator whose address space spans the slow device.
func New(p *memsim.Platform, cfg Config) (*Migrator, error) {
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("pagemig: invalid page size %d", cfg.PageSize)
	}
	numPages := (p.Slow.Capacity + cfg.PageSize - 1) / cfg.PageSize
	if numPages <= 0 {
		return nil, fmt.Errorf("pagemig: empty address space")
	}
	const maxPages = 64 << 20
	if numPages > maxPages {
		return nil, fmt.Errorf("pagemig: %d pages exceeds simulation limit (raise PageSize)", numPages)
	}
	return &Migrator{
		cfg:       cfg,
		fast:      p.Fast,
		slow:      p.Slow,
		copier:    p.Copier,
		numPages:  numPages,
		fastQuota: p.Fast.Capacity / cfg.PageSize,
		inFast:    make([]bool, numPages),
		hot:       make([]float64, numPages),
	}, nil
}

// Stats returns a snapshot of migrator activity.
func (m *Migrator) Stats() Stats { return m.stats }

// FastPages returns how many pages currently reside in DRAM.
func (m *Migrator) FastPages() int64 { return m.fastUsed }

// AccessResult reports how one access was served.
type AccessResult struct {
	Time      float64
	FastBytes int64
	SlowBytes int64
}

// Access runs [addr, addr+size) through the tiered address space: hotness
// counters bump, traffic is recorded on whichever device each page lives
// on, and the modelled service time is returned. access is the kernel's
// access shape.
func (m *Migrator) Access(addr, size int64, write bool, access memsim.Access) AccessResult {
	if size <= 0 {
		return AccessResult{}
	}
	if addr < 0 || addr+size > m.numPages*m.cfg.PageSize {
		panic(fmt.Sprintf("pagemig: access [%d,%d) out of range", addr, addr+size))
	}
	first := addr / m.cfg.PageSize
	last := (addr + size - 1) / m.cfg.PageSize
	var fastBytes, slowBytes int64
	for pg := first; pg <= last; pg++ {
		m.hot[pg]++
		lo := pg * m.cfg.PageSize
		hi := lo + m.cfg.PageSize
		if lo < addr {
			lo = addr
		}
		if hi > addr+size {
			hi = addr + size
		}
		if m.inFast[pg] {
			fastBytes += hi - lo
		} else {
			slowBytes += hi - lo
		}
	}
	var t float64
	if write {
		t += m.fast.Write(fastBytes, access)
		t += m.slow.Write(slowBytes, access)
	} else {
		t += m.fast.Read(fastBytes, access)
		t += m.slow.Read(slowBytes, access)
	}
	return AccessResult{Time: t, FastBytes: fastBytes, SlowBytes: slowBytes}
}

// Epoch runs one migration pass: the hottest slow pages displace the
// coldest fast pages (with hysteresis), hotness decays, and the modelled
// migration time is returned (the caller charges it to the clock — the
// paper's OS baselines pay this on the application's critical path via
// page faults and TLB shootdowns).
//
// Candidates are ordered strictly: slow pages by (hotness desc, page
// asc), fast victims by (hotness asc, page asc), so the epoch never
// depends on a sort's tie order. One pass over the pages gathers both
// lists from the pre-decay hotness and decays it; the migration loop
// reads only the gathered copies. The loop moves at least one page per
// slow candidate it inspects, so with a budget it can inspect at most
// ceil(MaxMigrateBytes/PageSize) of them: only that prefix of each list
// is selected and sorted.
func (m *Migrator) Epoch() float64 {
	m.stats.Epochs++
	slow, fast := m.slowBuf[:0], m.fastBuf[:0]
	decay := m.cfg.Decay
	for pg, h := range m.hot {
		if m.inFast[pg] {
			fast = append(fast, cand{h, int64(pg)})
		} else if h > 0 {
			slow = append(slow, cand{-h, int64(pg)})
		}
		m.hot[pg] = h * decay
	}
	m.slowBuf, m.fastBuf = slow, fast

	ps := m.cfg.PageSize
	budget := m.cfg.MaxMigrateBytes
	k := len(slow)
	if budget > 0 {
		pages := budget / ps
		if budget%ps != 0 {
			pages++
		}
		k = int(min(int64(k), pages))
	}
	slow = slow[:sortPrefix(slow, k)]
	fast = fast[:sortPrefix(fast, k)]

	var elapsed float64
	var moved int64
	ci := 0
	for _, s := range slow {
		if budget > 0 && moved >= budget {
			break
		}
		if m.fastUsed < m.fastQuota {
			// Free DRAM: promotion costs one page copy up.
			elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*ps%m.slow.Capacity, ps)
			m.inFast[s.pg] = true
			m.fastUsed++
			m.stats.Promotions++
			m.stats.PromotedBytes += ps
			moved += ps
			continue
		}
		// Must displace the coldest fast page — only worth it with a
		// hotness margin.
		if ci >= len(fast) {
			break
		}
		victim := fast[ci]
		if -s.key < victim.key*m.cfg.PromoteMargin+1 {
			break // remaining candidates are colder still
		}
		ci++
		// Demote victim (fast -> slow), promote candidate.
		elapsed += m.copier.Copy(m.slow, victim.pg*ps%m.slow.Capacity, m.fast, 0, ps)
		elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*ps%m.slow.Capacity, ps)
		m.inFast[victim.pg] = false
		m.inFast[s.pg] = true
		m.stats.Demotions++
		m.stats.Promotions++
		m.stats.DemotedBytes += ps
		m.stats.PromotedBytes += ps
		moved += 2 * ps
	}
	m.stats.MigrateTime += elapsed
	return elapsed
}

// cand is one page an epoch considers, ordered ascending by (key, pg).
// key is the pre-decay hotness for fast victims (coldest first) and its
// negation for slow candidates (hottest first); negation is exact, and
// the page number breaks ties, so the order is strict and total.
type cand struct {
	key float64
	pg  int64
}

func (a cand) less(b cand) bool {
	return a.key < b.key || (a.key == b.key && a.pg < b.pg)
}

// sortPrefix reorders c so that c[:k] holds its k least candidates in
// ascending order, and returns k clamped to len(c). It is a partial
// quicksort — expected O(len(c) + k log k) — that falls back to a full
// sort of the remaining range if partitioning degenerates.
func sortPrefix(c []cand, k int) int {
	k = min(k, len(c))
	partialSort(c, k, 2*bits.Len(uint(len(c))))
	return k
}

func partialSort(c []cand, k, depth int) {
	for len(c) > 12 && k > 0 {
		if depth == 0 {
			slices.SortFunc(c, func(a, b cand) int {
				if a.less(b) {
					return -1
				}
				if b.less(a) {
					return 1
				}
				return 0
			})
			return
		}
		depth--
		p := partition(c)
		if k <= p+1 {
			// The prefix ends at or before the pivot; a k beyond the
			// shorter range just sorts all of it.
			c = c[:p]
			continue
		}
		partialSort(c[:p], p, depth)
		c, k = c[p+1:], k-p-1
	}
	if k > 0 {
		for i := 1; i < len(c); i++ {
			for j := i; j > 0 && c[j].less(c[j-1]); j-- {
				c[j], c[j-1] = c[j-1], c[j]
			}
		}
	}
}

// partition moves the median of c's first, middle and last elements to
// its final index p and returns p: c[:p] < c[p] < c[p+1:].
func partition(c []cand) int {
	n, mid := len(c), len(c)/2
	if c[mid].less(c[0]) {
		c[mid], c[0] = c[0], c[mid]
	}
	if c[n-1].less(c[0]) {
		c[n-1], c[0] = c[0], c[n-1]
	}
	if c[n-1].less(c[mid]) {
		c[n-1], c[mid] = c[mid], c[n-1]
	}
	c[0], c[mid] = c[mid], c[0]
	pivot := c[0]
	i, j := 1, n-1
	for {
		for i <= j && c[i].less(pivot) {
			i++
		}
		for i <= j && pivot.less(c[j]) {
			j--
		}
		if i >= j {
			break
		}
		c[i], c[j] = c[j], c[i]
		i++
		j--
	}
	c[0], c[j] = c[j], c[0]
	return j
}
