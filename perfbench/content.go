package main

// The expected outputs of every analysis access are computed here, apart
// from the program: this file re-implements the documented content
// stream of a virtualized file (an FNV-1a 64-bit hash of the file name
// seeds an xorshift64 generator that emits one byte per step), the
// netCDF-style decoding of each little-endian 8-byte word onto [-1, 1),
// and the mean/variance kernel of the paper's analyses. It imports no
// package of the program, so a change that alters what a re-simulated
// file contains, or how the I/O shim decodes it, shows up as failed
// accesses instead of moving the expectation along with it.

// meanVar is the expected result of one analysis access.
type meanVar struct {
	mean, variance float64
}

// expectedMeanVar returns the mean and variance a reader computes over the
// whole field of the named file of size bytes. buf is scratch space for
// the decoded values; the returned slice is buf grown to fit, for reuse.
func expectedMeanVar(name string, size int64, buf []float64) (meanVar, []float64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	n := int(size / 8)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	xs := buf[:n]
	x := h
	for i := range xs {
		var word uint64
		for b := 0; b < 8; b++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			word |= uint64(byte(x)) << (8 * b)
		}
		xs[i] = float64(word>>11)/(1<<52) - 1
	}
	// The same two-pass order as the analysis kernel, so a correct read
	// reproduces these values bit for bit.
	var mv meanVar
	if n == 0 {
		return mv, buf
	}
	for _, v := range xs {
		mv.mean += v
	}
	mv.mean /= float64(n)
	for _, v := range xs {
		mv.variance += (v - mv.mean) * (v - mv.mean)
	}
	mv.variance /= float64(n)
	return mv, buf
}
