package bench

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// mallocs is the process's cumulative heap allocation count. It stops
// the world briefly, so callers read it only at phase boundaries.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

const (
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	liveHeapMetric = "/gc/heap/live:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
)

// heapSampler records the live heap the runtime marks at each GC
// cycle, polling every millisecond. It is not a load client: it only
// reads runtime counters.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	lives []float64 // MB; written by the sampler, read after wg.Wait
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: gcCyclesMetric}, {Name: liveHeapMetric}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.lives = append(h.lives, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the live heap of each GC seen, in MB.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	h.wg.Wait()
	return h.lives
}

// cpuSplit reads the runtime's cumulative GC and total CPU estimates.
func cpuSplit() (gc, total float64) {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: totalCPUMetric}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
