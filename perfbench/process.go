package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's cost counters.
type usage struct {
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
}

// readUsage samples rusage and the runtime's allocation counter; neither
// stops the world.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a live process cannot fail
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{cpu: cpu, alloc: s[0].Value.Uint64()}
}

func (u usage) sub(v usage) usage { return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc} }

// heapWatch samples HeapInuse (heap objects plus unused heap spans, as
// runtime.MemStats defines it) every interval and keeps the peak.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func watchHeap(interval time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(samples)
			inuse := samples[0].Value.Uint64() + samples[1].Value.Uint64()
			for {
				old := h.peak.Load()
				if inuse <= old || h.peak.CompareAndSwap(old, inuse) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take and starts a new one. A nil
// watch reads 0.
func (h *heapWatch) take() uint64 {
	if h == nil {
		return 0
	}
	return h.peak.Swap(0)
}

func (h *heapWatch) close() {
	close(h.stop)
	h.wg.Wait()
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
