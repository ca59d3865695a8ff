// Package csum implements the checksums Pangolin uses to detect NVMM
// corruption.
//
// The paper picks Adler32 over CRC32 because Adler32 supports incremental
// updates: when a transaction modifies a range of an object, the object's
// checksum can be refreshed in time proportional to the modified range
// rather than the whole object (§3.5). This package implements that
// range-replacement update from first principles (the standard library's
// hash/adler32 has no such operation) plus a CRC32 path used as the
// ablation baseline.
package csum

// adlerMod is the largest prime smaller than 2^16, per RFC 1950.
const adlerMod = 65521

// nmax is the largest n such that 255*n*(n+1)/2 + (n+1)*(adlerMod-1) fits in
// 32 bits, i.e. how many bytes can be summed before reducing.
const nmax = 5552

// Adler32 computes the Adler-32 checksum of data.
func Adler32(data []byte) uint32 {
	return Continue(1, data)
}

// Continue extends an Adler-32 state over more bytes: streaming
// concatenation, Continue(Adler32(a), b) == Adler32(a||b). The inner loop
// is unrolled — this is the library's stand-in for the paper's ISA-L SIMD
// checksum kernels, so it should not be naively slow.
func Continue(sum uint32, data []byte) uint32 {
	a, b := sum&0xffff, sum>>16
	for len(data) > 0 {
		chunk := data
		if len(chunk) > nmax {
			chunk = chunk[:nmax]
		}
		data = data[len(chunk):]
		for len(chunk) >= 16 {
			c := chunk[:16]
			a += uint32(c[0])
			b += a
			a += uint32(c[1])
			b += a
			a += uint32(c[2])
			b += a
			a += uint32(c[3])
			b += a
			a += uint32(c[4])
			b += a
			a += uint32(c[5])
			b += a
			a += uint32(c[6])
			b += a
			a += uint32(c[7])
			b += a
			a += uint32(c[8])
			b += a
			a += uint32(c[9])
			b += a
			a += uint32(c[10])
			b += a
			a += uint32(c[11])
			b += a
			a += uint32(c[12])
			b += a
			a += uint32(c[13])
			b += a
			a += uint32(c[14])
			b += a
			a += uint32(c[15])
			b += a
			chunk = chunk[16:]
		}
		for _, c := range chunk {
			a += uint32(c)
			b += a
		}
		a %= adlerMod
		b %= adlerMod
	}
	return b<<16 | a
}

// Update returns the Adler-32 checksum of a buffer of total length total
// after the bytes at [off, off+len(old)) are replaced: sum is the checksum
// of the original buffer, old are the bytes being replaced and new_ their
// replacements (equal lengths). The cost is O(len(old)), independent of
// total — the property that makes per-object checksums affordable for large
// objects (§3.5).
//
// Derivation: with d_i the i-th byte of an n-byte buffer,
//
//	a = 1 + Σ d_i            (mod 65521)
//	b = n + Σ (n-i)·d_i      (mod 65521)
//
// so replacing the m bytes d_j..d_{j+m-1} shifts a by ΔA = Σ(new-old) and
// b by Σ (n-i)·(new_i-old_i). Splitting each weight n-i into t + (m-k),
// where t = n-j-m counts the bytes after the range and k is the index
// within it, gives Δb = t·ΔA + ΔB, with ΔB the shift in Σ (m-k)·d_k. A and
// B of a range are exactly the (a, b) state Continue reaches from zero, so
// both sides of the range run through the unrolled summing kernel, which
// reduces once per nmax bytes, and only a few reductions remain per call.
func Update(sum uint32, total uint64, off uint64, old, new_ []byte) uint32 {
	if len(old) != len(new_) {
		panic("csum: Update requires equal-length old and new ranges")
	}
	if off+uint64(len(old)) > total {
		panic("csum: Update range exceeds buffer length")
	}
	so, sn := Continue(0, old), Continue(0, new_)
	da := uint64(sn&0xffff) + adlerMod - uint64(so&0xffff)
	db := uint64(sn>>16) + adlerMod - uint64(so>>16)
	t := (total - off - uint64(len(old))) % adlerMod
	a := (uint64(sum&0xffff) + da) % adlerMod
	b := (uint64(sum>>16) + t*da + db) % adlerMod
	return uint32(b)<<16 | uint32(a)
}
