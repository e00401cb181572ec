package main

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The untraced run reports its timings at a fixed reference host speed.
// The 2-vCPU containers this benchmark runs in share their host, and the
// other tenants slow it by 1.5–3.5x for minutes at a time, mostly by taking
// vCPU time away (the steal column of /proc/stat reaches a third of all
// time), far past any useful regression bound. So the load generator times
// a fixed reference kernel between ops, on both vCPUs at once, and scales
// every timing by
//
//	calibrationRefMs / (median kernel time near that timing).
//
// The kernel runs on both vCPUs because the server's work does: the engine's
// worker pool, the shards and minimize all wait for the slower of the two,
// and a kernel on one vCPU misses the steal on the other. Half of it works
// in cache and half reads memory at random, because the server's heap does
// not fit in cache and the tenants also compete for the shared cache and
// memory bandwidth; each half alone followed the server less closely. The
// kernel is the benchmark's own code, not the program's, so a change to the
// program moves the scaled figures exactly as it moves the raw ones; only
// the host's speed cancels. The raw wall-clock figures are printed beside
// the scaled ones in the report lines.

// calibrationRefMs is about the kernel's median time on the quieter
// stretches of a 2-vCPU Intel Xeon 2.0 GHz container with go1.24. It only
// sets the scale the figures are reported at.
const calibrationRefMs = 3.5

// calibrationEvery is the least loop time between two kernel samples, and
// calibrationWindow how many samples nearest an op set its scale.
const (
	calibrationEvery  = 50 * time.Millisecond
	calibrationWindow = 15
	calibrationKeys   = 4096    // cache half: map and sort size, per vCPU
	calibrationTable  = 4 << 20 // memory half: 32 MiB of uint64, shared
	calibrationReads  = 8000    // memory half: dependent random reads per vCPU
)

// calibration times the reference kernel and keeps every sample.
type calibration struct {
	lanes [2]*kernel  // one per vCPU
	at    []time.Time // when each sample started, ascending
	took  []float64   // its duration in ms
	last  time.Time   // when the last sample ended
}

func newCalibration() *calibration {
	table := make([]uint64, calibrationTable)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	c := &calibration{}
	for i := range c.lanes {
		c.lanes[i] = newKernel(table)
	}
	return c
}

// kernel is the reference work of one vCPU, without allocating: map
// inserts and lookups, a string sort and byte encoding on about 1 MiB, the
// kinds of work the server does, then dependent reads at random places in
// a table too large for the cache.
type kernel struct {
	keys  []string
	work  []string
	idx   map[string]int
	buf   []byte
	table []uint64
	sink  uint64
}

func newKernel(table []uint64) *kernel {
	rng := rand.New(rand.NewSource(1))
	k := &kernel{idx: make(map[string]int, calibrationKeys), buf: make([]byte, 0, 64*calibrationKeys), table: table}
	for i := 0; i < calibrationKeys; i++ {
		k.keys = append(k.keys, "customer-"+strconv.Itoa(rng.Intn(1e9)))
	}
	k.work = make([]string, len(k.keys))
	k.run() // warm the map's buckets and the buffer
	return k
}

func (k *kernel) run() {
	clear(k.idx)
	for i, key := range k.keys {
		k.idx[key] = i
	}
	copy(k.work, k.keys)
	slices.Sort(k.work)
	k.buf = k.buf[:0]
	for _, key := range k.work {
		k.buf = append(k.buf, key...)
		k.buf = append(k.buf, ':')
		k.buf = strconv.AppendInt(k.buf, int64(k.idx[key]), 10)
		k.buf = append(k.buf, '\n')
	}
	x := k.sink + uint64(len(k.buf))
	mask := uint64(len(k.table) - 1)
	for i := uint64(0); i < calibrationReads; i++ {
		x ^= k.table[(x+i)*0x9E3779B97F4A7C15&mask]
	}
	k.sink = x
}

// sample times one kernel run on each vCPU at once, until both end.
func (c *calibration) sample() {
	var wg sync.WaitGroup
	start := time.Now()
	for _, k := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.run()
		}()
	}
	wg.Wait()
	c.last = time.Now()
	c.at = append(c.at, start)
	c.took = append(c.took, ms(c.last.Sub(start)))
}

// maybeSample times the kernel when calibrationEvery has passed since the
// last sample.
func (c *calibration) maybeSample() {
	if time.Since(c.last) >= calibrationEvery {
		c.sample()
	}
}

// burst times the kernel n times in a row.
func (c *calibration) burst(n int) {
	for i := 0; i < n; i++ {
		c.sample()
	}
}

// scale is the factor that takes a timing that started at t to the
// reference host speed: calibrationRefMs over the median of the
// calibrationWindow samples nearest t.
func (c *calibration) scale(t time.Time) float64 {
	n := len(c.took)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return !c.at[i].Before(t) })
	lo := max(0, min(i-calibrationWindow/2, n-calibrationWindow))
	hi := min(n, lo+calibrationWindow)
	return calibrationRefMs / quantile(c.took[lo:hi], 0.5)
}
