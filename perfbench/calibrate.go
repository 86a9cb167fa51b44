package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// calibrationBurst is how long one calibration measurement runs.
const calibrationBurst = 500 * time.Millisecond

// referenceSpeed is calibrate's result on the 2-vCPU, 2.1 GHz x86-64 VM the
// benchmark was tuned on.  Time metrics are scaled to it; only ratios
// between runs matter, so the constant just keeps the figures near the
// wall-clock values.
const referenceSpeed = 60000

// calibrate measures how fast the machine runs right now: the rate at
// which one goroutine per CPU completes blocks of pointer chasing over a
// 4 MiB table mixed with integer hashing.  The loop is the benchmark's own
// code, so no change to the program under test moves it, while a shared
// host that slows every core for a while slows it as much as the daemon.
func calibrate(d time.Duration) float64 {
	const tableLen = 1 << 20
	table := make([]uint32, tableLen)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range table {
		x = splitmix64(x)
		//lint:ignore indextrunc x % tableLen is below 1<<20
		table[i] = uint32(x % tableLen)
	}
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			//lint:ignore indextrunc w is a CPU index; any start slot will do
			p, h, n := uint32(w*7919), uint64(w), int64(0)
			for !stop.Load() {
				for i := 0; i < 4096; i++ {
					p = table[p]
					h = splitmix64(h ^ uint64(p))
				}
				n++
			}
			ops.Add(n)
			sink.Add(h)
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return float64(ops.Load()) / time.Since(start).Seconds()
}

// sink keeps the calibration loop's result live.
var sink atomic.Uint64
