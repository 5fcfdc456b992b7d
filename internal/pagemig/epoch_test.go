package pagemig

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cachedarrays/internal/memsim"
)

// epochReference is the epoch Epoch must reproduce bit for bit: both
// candidate lists fully sorted under the pinned (hotness, page) order,
// then a separate eager decay loop over every page.
func (m *Migrator) epochReference() float64 {
	m.stats.Epochs++
	type refCand struct {
		pg  int64
		hot float64
	}
	var slowHot, fastCold []refCand
	for pg := int64(0); pg < m.numPages; pg++ {
		if m.hot[pg] > 0 && !m.inFast[pg] {
			slowHot = append(slowHot, refCand{pg, m.hot[pg]})
		} else if m.inFast[pg] {
			fastCold = append(fastCold, refCand{pg, m.hot[pg]})
		}
	}
	slices.SortFunc(slowHot, func(a, b refCand) int {
		return cmp.Or(cmp.Compare(b.hot, a.hot), cmp.Compare(a.pg, b.pg))
	})
	slices.SortFunc(fastCold, func(a, b refCand) int {
		return cmp.Or(cmp.Compare(a.hot, b.hot), cmp.Compare(a.pg, b.pg))
	})

	var elapsed float64
	var moved int64
	budget := m.cfg.MaxMigrateBytes
	ci := 0
	for _, s := range slowHot {
		if budget > 0 && moved >= budget {
			break
		}
		if m.fastUsed < m.fastQuota {
			elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*m.cfg.PageSize%m.slow.Capacity, m.cfg.PageSize)
			m.inFast[s.pg] = true
			m.fastUsed++
			m.stats.Promotions++
			m.stats.PromotedBytes += m.cfg.PageSize
			moved += m.cfg.PageSize
			continue
		}
		if ci >= len(fastCold) {
			break
		}
		victim := fastCold[ci]
		if s.hot < victim.hot*m.cfg.PromoteMargin+1 {
			break
		}
		ci++
		elapsed += m.copier.Copy(m.slow, victim.pg*m.cfg.PageSize%m.slow.Capacity, m.fast, 0, m.cfg.PageSize)
		elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*m.cfg.PageSize%m.slow.Capacity, m.cfg.PageSize)
		m.inFast[victim.pg] = false
		m.inFast[s.pg] = true
		m.stats.Demotions++
		m.stats.Promotions++
		m.stats.DemotedBytes += m.cfg.PageSize
		m.stats.PromotedBytes += m.cfg.PageSize
		moved += 2 * m.cfg.PageSize
	}
	for pg := range m.hot {
		m.hot[pg] *= m.cfg.Decay
	}
	m.stats.MigrateTime += elapsed
	return elapsed
}

// epochState is everything an epoch can change.
type epochState struct {
	Elapsed    float64
	InFast     []bool
	Hot        []float64
	FastUsed   int64
	Stats      Stats
	Fast, Slow memsim.Counters
	Now        float64
}

func snapshot(m *Migrator, p *memsim.Platform, elapsed float64) epochState {
	return epochState{
		Elapsed:  elapsed,
		InFast:   slices.Clone(m.inFast),
		Hot:      slices.Clone(m.hot),
		FastUsed: m.fastUsed,
		Stats:    m.stats,
		Fast:     p.Fast.Counters(),
		Slow:     p.Slow.Counters(),
		Now:      p.Clock.Now(),
	}
}

// runLockstep drives a production migrator and a reference migrator
// through the same op stream and fails on the first epoch whose state
// differs. Each op is two bytes: op%5 == 0 runs an epoch; otherwise the
// op reads op%5 times over a run of (op/5)%16+1 pages starting at page
// arg — overlapping runs of equal repeat counts make heavy hotness ties.
// A final epoch always runs.
func runLockstep(t *testing.T, cfg Config, fastCap, slowCap int64, ops []byte) {
	t.Helper()
	plat := func() *memsim.Platform {
		return memsim.NewPlatform(memsim.PlatformConfig{
			FastCapacity: fastCap, SlowCapacity: slowCap, CopyThreads: 4,
		})
	}
	pp, pr := plat(), plat()
	prod, err := New(pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := 0
	step := func() {
		epoch++
		got := snapshot(prod, pp, prod.Epoch())
		want := snapshot(ref, pr, ref.epochReference())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d (cfg %+v, fast %d, slow %d) diverges from the reference:\n got  %+v\n want %+v",
				epoch, cfg, fastCap, slowCap, got, want)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int64(ops[i+1])
		if op%5 == 0 {
			step()
			continue
		}
		first := arg % prod.numPages
		pages := min(int64(op/5)%16+1, prod.numPages-first)
		for r := 0; r < int(op%5); r++ {
			prod.Access(first*cfg.PageSize, pages*cfg.PageSize, false, seqAccess)
			ref.Access(first*cfg.PageSize, pages*cfg.PageSize, false, seqAccess)
		}
	}
	step()
}

const diffPage = 4096

// budgetCases are the per-epoch budgets the selection bound must honour:
// unlimited, below one page, not a page multiple, and more than any
// epoch has candidates.
var budgetCases = []struct {
	name  string
	bytes int64
}{
	{"unlimited", 0},
	{"sub-page", diffPage / 3},
	{"non-multiple", 5 * diffPage / 2},
	{"one-page", diffPage},
	{"beyond-candidates", 1 << 40},
}

func TestEpochMatchesReference(t *testing.T) {
	quotas := []struct {
		name    string
		fastCap int64
	}{
		{"quota-0", diffPage / 2},
		{"quota-3", 3 * diffPage},
		{"quota-40", 40 * diffPage},
		{"quota-above-pages", 1024 * diffPage},
	}
	const slowCap = 300 * diffPage
	for _, b := range budgetCases {
		for _, q := range quotas {
			t.Run(b.name+"/"+q.name, func(t *testing.T) {
				cfg := Config{PageSize: diffPage, Decay: 0.5, PromoteMargin: 1.25, MaxMigrateBytes: b.bytes}
				for seed := uint64(0); seed < 8; seed++ {
					r := rand.New(rand.NewPCG(seed, 14))
					ops := make([]byte, 600)
					for i := range ops {
						ops[i] = byte(r.UintN(256))
					}
					runLockstep(t, cfg, q.fastCap, slowCap, ops)
				}
			})
		}
	}
}

// decodeScenario maps the first four fuzz bytes onto a migrator setup —
// fast quota (0 included), address-space size, budget class and decay /
// margin — and returns the rest as the op stream.
func decodeScenario(data []byte) (cfg Config, fastCap, slowCap int64, ops []byte) {
	var hdr [4]byte
	copy(hdr[:], data)
	if len(data) > 4 {
		ops = data[4:]
	}
	fastCap = int64(hdr[0]%64) * diffPage
	if fastCap == 0 {
		fastCap = diffPage / 2
	}
	slowCap = (8 + int64(hdr[1])) * diffPage
	budget := budgetCases[int(hdr[2])%len(budgetCases)].bytes
	if hdr[2] >= 128 {
		budget = int64(hdr[2]%16+1) * diffPage / 2
	}
	cfg = Config{
		PageSize:        diffPage,
		Decay:           []float64{0.5, 0.25, 1, 0}[hdr[3]%4],
		PromoteMargin:   []float64{1.25, 1, 0.5, 2}[(hdr[3]/4)%4],
		MaxMigrateBytes: budget,
	}
	return cfg, fastCap, slowCap, ops
}

// FuzzEpochSequence runs runLockstep on fuzzed scenarios; its seed corpus
// lives in testdata/fuzz/FuzzEpochSequence.
func FuzzEpochSequence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		cfg, fastCap, slowCap, ops := decodeScenario(data)
		runLockstep(t, cfg, fastCap, slowCap, ops)
	})
}

func TestSortPrefix(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 5, 12, 13, 40, 500} {
		// depth 0 and 1 take the full-sort fallback at once or after one
		// partition.
		for _, depth := range []int{0, 1, 64} {
			c := make([]cand, n)
			for i := range c {
				// Four distinct keys and shuffled pages: mostly ties.
				c[i] = cand{key: float64(r.IntN(4)), pg: int64(r.IntN(1 << 20))}
			}
			want := sortedCopy(c)
			for _, k := range []int{0, 1, n / 3, max(n-1, 0), n, n + 7} {
				kk := min(k, n)
				if got := sortPrefix(slices.Clone(c), k); got != kk {
					t.Fatalf("n=%d k=%d: sortPrefix returned %d", n, k, got)
				}
				got := slices.Clone(c)
				partialSort(got, kk, depth)
				if !slices.Equal(got[:kk], want[:kk]) {
					t.Fatalf("n=%d depth=%d k=%d: prefix %v, want %v", n, depth, k, got[:kk], want[:kk])
				}
				if !slices.Equal(sortedCopy(got), want) {
					t.Fatalf("n=%d depth=%d k=%d: not a permutation", n, depth, k)
				}
			}
		}
	}
}

func sortedCopy(c []cand) []cand {
	c = slices.Clone(c)
	slices.SortFunc(c, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.pg, b.pg))
	})
	return c
}

func TestEpochSteadyStateAllocs(t *testing.T) {
	cfg := testCfg
	cfg.MaxMigrateBytes = 8 * 4096
	m, _ := newMig(t, 32*4096, 1024*4096, cfg)
	work := func() {
		for i := int64(0); i < 8; i++ {
			m.Access(i*97*4096, 16*4096, false, seqAccess)
		}
		m.Epoch()
	}
	for i := 0; i < 4; i++ {
		work() // grow the candidate buffers
	}
	if a := testing.AllocsPerRun(100, work); a != 0 {
		t.Fatalf("steady-state epoch allocates %.1f times per run, want 0", a)
	}
}

// BenchmarkEpoch times one epoch on the paper platform (180 GB DRAM over
// 1300 GB NVRAM, DefaultConfig's 2 MiB pages and 16 GB budget) with
// about 130k hot slow pages and 83k resident fast pages, against the
// full-sort reference.
func BenchmarkEpoch(b *testing.B) {
	p := memsim.DefaultPlatform()
	m, err := New(p, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const fastPages, hotSlowPages = 83_000, 130_000
	for pg := int64(0); pg < fastPages; pg++ {
		m.inFast[pg] = true
		m.hot[pg] = float64(pg % 5)
	}
	m.fastUsed = fastPages
	for pg := int64(fastPages); pg < fastPages+hotSlowPages; pg++ {
		m.hot[pg] = float64(1 + pg%7)
	}
	hot0, inFast0 := slices.Clone(m.hot), slices.Clone(m.inFast)
	for _, bc := range []struct {
		name  string
		epoch func() float64
	}{{"epoch", m.Epoch}, {"reference", m.epochReference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(m.hot, hot0)
				copy(m.inFast, inFast0)
				m.fastUsed = fastPages
				p.Reset()
				b.StartTimer()
				bc.epoch()
			}
		})
	}
}
