// Package pagetab holds the page-keyed tables of the flash path: Dense, a
// lazily chunked array for keys from a fixed range that is written
// sparsely (the FTL's lpn → ppn map), and Table, an open-addressed hash
// table for any int64 key (ppn → lpn, the buffer cache's block index,
// per-page sequence numbers and buffered-write counts).
//
// Neither is a Go map. A Go map whose keys churn (new keys in, old keys
// deleted) leaves tombstones and regrows at points its random hash seed
// sets, so a steady state built on one allocates in some runs and not in
// others; and its hashing is the bulk of a lookup's cost for integer
// keys. Both tables here allocate only when they first need room they
// never had before, and neither ever shrinks.
package pagetab

// chunkBits sets Dense's chunk size: 1 << chunkBits int32 entries, 4 KiB.
const chunkBits = 10

// chunkSize is the number of entries in one Dense chunk.
const chunkSize = 1 << chunkBits

// Dense maps each index in [0, n) to a non-negative int32, or to nothing.
// Its storage is a directory of fixed-size chunks, each allocated on the
// first Set into it, so a table pays only for the part of its range that
// is ever written; reading an untouched chunk costs no memory.
//
// An index outside [0, n) panics.
type Dense struct {
	chunks [][]int32 // chunk c holds indices [c·chunkSize, (c+1)·chunkSize); nil until written
	n      int64     // range size
	set    int64     // indices holding a value
}

// NewDense returns an empty table over [0, n).
func NewDense(n int64) Dense {
	return Dense{chunks: make([][]int32, (n+chunkSize-1)/chunkSize), n: n}
}

// Get returns the value at i, or −1 if i holds none.
func (d *Dense) Get(i int64) int32 {
	c := d.chunks[i>>chunkBits]
	if c == nil {
		if i >= d.n {
			panic("pagetab: index out of range")
		}
		return -1
	}
	return c[i&(chunkSize-1)]
}

// Set stores v, which must be non-negative, at i.
func (d *Dense) Set(i int64, v int32) {
	c := d.chunks[i>>chunkBits]
	if c == nil {
		c = d.alloc(i >> chunkBits)
	}
	p := &c[i&(chunkSize-1)]
	if *p < 0 {
		d.set++
	}
	*p = v
}

// Delete removes the value at i, if any.
func (d *Dense) Delete(i int64) {
	c := d.chunks[i>>chunkBits]
	if c == nil {
		return
	}
	if p := &c[i&(chunkSize-1)]; *p >= 0 {
		*p = -1
		d.set--
	}
}

// Len returns the number of indices holding a value.
func (d *Dense) Len() int64 { return d.set }

// alloc creates chunk c with every entry empty. The last chunk is cut to
// the end of the range, so an index past it panics.
func (d *Dense) alloc(c int64) []int32 {
	size := d.n - c*chunkSize
	if size > chunkSize {
		size = chunkSize
	}
	s := make([]int32, size)
	for j := range s {
		s[j] = -1
	}
	d.chunks[c] = s
	return s
}
