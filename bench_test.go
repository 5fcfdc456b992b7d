// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (§V), plus the §V-d device characterization
// and the §VI extension. Each benchmark runs the corresponding experiment
// and reports the paper's metric through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. The simulator runs in virtual time;
// host-side ns/op measures simulation cost, while the custom metrics
// (iter-s, GB, hit-%, util-%) are the figures' actual y-axes.
package cachedarrays

import (
	"fmt"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

// benchIters keeps benchmark wall time reasonable while still separating
// warm-up from measurement.
const benchIters = 2

// BenchmarkTableIIIFootprints regenerates Table III: it builds each
// benchmark network and reports its training footprint in GB.
func BenchmarkTableIIIFootprints(b *testing.B) {
	for _, pm := range append(models.PaperLargeModels(), models.PaperSmallModels()...) {
		class := "small"
		if pm.Large {
			class = "large"
		}
		b.Run(fmt.Sprintf("%s/%s/batch=%d", class, pm.Name, pm.BatchSize), func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				peak = pm.Build().PeakFootprint()
			}
			b.ReportMetric(float64(peak)/1e9, "footprint-GB")
		})
	}
}

// fig2Cells enumerates the Figure 2/5/6 matrix.
func fig2Cells() []struct {
	model models.PaperModel
	mode  string
} {
	var cells []struct {
		model models.PaperModel
		mode  string
	}
	for _, pm := range models.PaperLargeModels() {
		for _, mode := range experiments.ModeNames {
			cells = append(cells, struct {
				model models.PaperModel
				mode  string
			}{pm, mode})
		}
	}
	return cells
}

func runMode(b *testing.B, m *models.Model, mode string, cfg engine.Config) *engine.Result {
	b.Helper()
	r, err := engine.Run(m, mode, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig2IterationTime regenerates Figure 2: per-iteration training
// time for each large network under each operating mode.
func BenchmarkFig2IterationTime(b *testing.B) {
	for _, cell := range fig2Cells() {
		b.Run(fmt.Sprintf("%s/%s", cell.model.Name, cell.mode), func(b *testing.B) {
			m := cell.model.Build()
			var r *engine.Result
			for i := 0; i < b.N; i++ {
				r = runMode(b, m, cell.mode, engine.Config{Iterations: benchIters})
			}
			b.ReportMetric(r.IterTime, "iter-s")
			b.ReportMetric(r.MoveTime, "move-s")
		})
	}
}

// BenchmarkFig3HeapOccupancy regenerates Figure 3: the resident-heap
// trajectory of one ResNet iteration under the two 2LM regimes, reporting
// the peak occupancy.
func BenchmarkFig3HeapOccupancy(b *testing.B) {
	m := models.ResNet(200, 2048)
	for _, mode := range []string{"2LM:0", "2LM:M"} {
		b.Run(mode, func(b *testing.B) {
			var r *engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = engine.Run(m, mode, engine.Config{Iterations: benchIters, SampleHeap: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.PeakHeap)/1e9, "peak-heap-GB")
			b.ReportMetric(float64(len(r.HeapSamples)), "samples")
		})
	}
}

// BenchmarkFig4CacheStats regenerates Figure 4: the DRAM cache tag
// statistics of the ResNet 2LM runs.
func BenchmarkFig4CacheStats(b *testing.B) {
	m := models.ResNet(200, 2048)
	for _, mode := range []string{"2LM:0", "2LM:M"} {
		b.Run(mode, func(b *testing.B) {
			var r *engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = engine.Run(m, mode, engine.Config{Iterations: benchIters})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*r.Cache.HitRate(), "hit-%")
			b.ReportMetric(100*r.Cache.CleanMissRate(), "clean-miss-%")
			b.ReportMetric(100*r.Cache.DirtyMissRate(), "dirty-miss-%")
		})
	}
}

// BenchmarkFig5Traffic regenerates Figure 5: per-iteration DRAM and NVRAM
// read/write volumes for every (model, mode) cell.
func BenchmarkFig5Traffic(b *testing.B) {
	for _, cell := range fig2Cells() {
		b.Run(fmt.Sprintf("%s/%s", cell.model.Name, cell.mode), func(b *testing.B) {
			m := cell.model.Build()
			var r *engine.Result
			for i := 0; i < b.N; i++ {
				r = runMode(b, m, cell.mode, engine.Config{Iterations: benchIters})
			}
			b.ReportMetric(float64(r.Fast.ReadBytes)/1e9, "dram-read-GB")
			b.ReportMetric(float64(r.Fast.WriteBytes)/1e9, "dram-write-GB")
			b.ReportMetric(float64(r.Slow.ReadBytes)/1e9, "nvram-read-GB")
			b.ReportMetric(float64(r.Slow.WriteBytes)/1e9, "nvram-write-GB")
		})
	}
}

// BenchmarkFig6BusUtilization regenerates Figure 6: the average DRAM bus
// utilization of the ResNet and VGG runs.
func BenchmarkFig6BusUtilization(b *testing.B) {
	for _, cell := range fig2Cells() {
		if cell.model.Name == "DenseNet 264" {
			continue // Fig. 6 shows ResNet 200 and VGG 416
		}
		b.Run(fmt.Sprintf("%s/%s", cell.model.Name, cell.mode), func(b *testing.B) {
			m := cell.model.Build()
			var r *engine.Result
			for i := 0; i < b.N; i++ {
				r = runMode(b, m, cell.mode, engine.Config{Iterations: benchIters})
			}
			b.ReportMetric(100*r.FastBusUtil, "dram-util-%")
		})
	}
}

// BenchmarkFig7DRAMSweep regenerates Figure 7: small-network iteration
// time under CA:LM across DRAM budgets, with the async projection.
func BenchmarkFig7DRAMSweep(b *testing.B) {
	for _, pm := range models.PaperSmallModels() {
		for _, budget := range experiments.DefaultFig7Budgets() {
			pm, budget := pm, budget
			shown := budget
			if shown == engine.NVRAMOnly {
				shown = 0
			}
			b.Run(fmt.Sprintf("%s/dram=%dGB", pm.Name, shown/units.GB), func(b *testing.B) {
				m := pm.Build()
				var r *engine.Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = engine.Run(m, "CA:LM",
						engine.Config{Iterations: benchIters, FastCapacity: budget})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.IterTime, "iter-s")
				b.ReportMetric(r.ProjectedAsyncTime, "async-s")
			})
		}
	}
}

// BenchmarkCopyParallelism regenerates the §V-d characterization: the
// DRAM->NVRAM copy bandwidth as the thread count grows (it peaks early and
// then decays), also exercising the copy engine's host-side speed.
func BenchmarkCopyParallelism(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8, 16, 28} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			clock := &memsim.Clock{}
			fast := memsim.NewDevice("dram", memsim.DRAM, units.GB, memsim.DRAMProfile())
			slow := memsim.NewDevice("nvram", memsim.NVRAM, units.GB, memsim.NVRAMProfile())
			eng := memsim.NewCopyEngine(clock, threads)
			var el float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				el = eng.Copy(slow, 0, fast, 0, 512*units.MB)
			}
			b.ReportMetric(512e6/el/1e9, "copy-GB/s")
		})
	}
}

// BenchmarkFig7AsyncImplementation regenerates the Fig. 7 extension: the
// asynchronous mover the paper projects, actually implemented and
// measured against the projection.
func BenchmarkFig7AsyncImplementation(b *testing.B) {
	m := models.DenseNet(264, 504)
	for _, budget := range []int64{60 * units.GB, 10 * units.GB} {
		b.Run(fmt.Sprintf("dram=%dGB", budget/units.GB), func(b *testing.B) {
			var sync, async *engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				sync, err = engine.Run(m, "CA:LM",
					engine.Config{Iterations: benchIters, FastCapacity: budget})
				if err != nil {
					b.Fatal(err)
				}
				async, err = engine.Run(m, "CA:LM",
					engine.Config{Iterations: benchIters, FastCapacity: budget, AsyncMovement: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sync.IterTime, "sync-s")
			b.ReportMetric(sync.ProjectedAsyncTime, "projection-s")
			b.ReportMetric(async.IterTime, "async-s")
		})
	}
}

// BenchmarkBaselineMechanisms compares the three Table I mechanisms on
// ResNet 200: hardware caching, OS page tiering, and CachedArrays.
func BenchmarkBaselineMechanisms(b *testing.B) {
	m := models.ResNet(200, 2048)
	cfg := engine.Config{Iterations: benchIters}
	for _, mode := range []string{"2LM:0", "OS:page", "CA:LM"} {
		b.Run(mode, func(b *testing.B) {
			var r *engine.Result
			for i := 0; i < b.N; i++ {
				r = runMode(b, m, mode, cfg)
			}
			b.ReportMetric(r.IterTime, "iter-s")
		})
	}
}

// BenchmarkDLRMExtension regenerates the §VI extension experiment,
// reporting the post-drift fast-tier hit rates of the static and dynamic
// placements.
func BenchmarkDLRMExtension(b *testing.B) {
	cfg := models.DefaultDLRMConfig()
	var r *experiments.DLRMResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunDLRM(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.StaticHit) - 1
	b.ReportMetric(100*r.StaticHit[last], "static-hit-%")
	b.ReportMetric(100*r.DynamicHit[last], "dynamic-hit-%")
}
