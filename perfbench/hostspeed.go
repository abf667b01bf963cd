package main

// Host speed. On a shared cloud VM the host's speed drifts by tens of
// percent over minutes, which medians over one run cannot remove, and code
// that allocates, encodes data and walks memory slows far more than pure
// integer code does. The parent times a fixed burst of such work before the
// first child and after every child, and scales each child's times by
// refBurstNS ÷ the mean of the measurements just before and just after it.
// The burst runs no code of the program and runs in the parent, so nothing
// the program does alters it: not its code, its caches' contents, its
// garbage collection or a child's resident set. A faster program reads
// faster.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// refBurstNS is the reference host's burst time, about what a 2-vCPU cloud
// VM measures; the end-to-end times are scaled to a host this fast.
const refBurstNS = 5e6

// burstReps is how many bursts one measurement times; it keeps the median.
const burstReps = 7

// hostClock measures the host's speed between children.
type hostClock struct {
	table  []uint32 // 4 MB, larger than a core's private caches
	bursts []float64
	last   float64 // the latest measurement, in ns per burst
}

// newHostClock sets up a clock and takes its first measurement.
func newHostClock() *hostClock {
	c := &hostClock{table: make([]uint32, 1<<20), bursts: make([]float64, burstReps)}
	c.measure()
	return c
}

// measure times burstReps bursts, records their median as the latest
// measurement and returns it.
func (c *hostClock) measure() float64 {
	for i := range c.bursts {
		c.bursts[i] = float64(timeNS(c.burst))
	}
	c.last = quantile(c.bursts, 0.5)
	return c.last
}

// burst is one fixed unit of host work in two parts that a contended host
// slows about as much as it slows the workloads: formatting and JSON
// encoding of small allocated records, as a tracer does, with hashing of the
// output, and dependent random reads and writes over the table.
func (c *hostClock) burst() {
	keep += encodeRecords(2000)
	keep += c.walkTable(1 << 18)
}

type burstRecord struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	TS   uint64            `json:"ts"`
	Dur  uint64            `json:"dur"`
	Args map[string]string `json:"args"`
}

// encodeRecords formats and JSON-encodes n records and hashes the encodings
// in 4 KB blocks.
func encodeRecords(n int) uint64 {
	var buf bytes.Buffer
	h := sha256.New()
	for i := 0; i < n; i++ {
		b, err := json.Marshal(burstRecord{Name: fmt.Sprintf("ins %d", i), Cat: "pipe", TS: uint64(7 * i), Dur: 5,
			Args: map[string]string{"pc": fmt.Sprintf("%#x", 4*i), "op": "add"}})
		if err != nil {
			panic(err) // the record always encodes
		}
		buf.Write(b)
		if buf.Len() > 4096 {
			h.Write(buf.Bytes())
			buf.Reset()
		}
	}
	h.Write(buf.Bytes())
	return uint64(h.Sum(nil)[0])
}

// walkTable makes n dependent pseudo-random reads and writes over the table.
func (c *hostClock) walkTable(n int) uint64 {
	mask := uint32(len(c.table) - 1)
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		acc += c.table[x&mask]
		c.table[(x>>3)&mask] = acc
	}
	return uint64(acc)
}
