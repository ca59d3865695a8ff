package csum

import (
	"bytes"
	"hash/adler32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdlerMatchesStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{255},
		[]byte("hello, pangolin"),
		bytes.Repeat([]byte{0xAB}, 10000), // exceeds nmax: exercises chunked reduction
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		b := make([]byte, rng.Intn(20000))
		rng.Read(b)
		cases = append(cases, b)
	}
	for i, c := range cases {
		if got, want := Adler32(c), adler32.Checksum(c); got != want {
			t.Fatalf("case %d (len %d): Adler32 = %#x, stdlib = %#x", i, len(c), got, want)
		}
	}
}

func TestUpdateBasic(t *testing.T) {
	buf := []byte("the quick brown fox jumps over the lazy dog")
	sum := Adler32(buf)
	mod := append([]byte(nil), buf...)
	copy(mod[4:9], "slow!")
	got := Update(sum, uint64(len(buf)), 4, buf[4:9], mod[4:9])
	if want := Adler32(mod); got != want {
		t.Fatalf("Update = %#x, full recompute = %#x", got, want)
	}
}

func TestUpdateWholeBuffer(t *testing.T) {
	old := bytes.Repeat([]byte{1}, 333)
	new_ := bytes.Repeat([]byte{200}, 333)
	sum := Adler32(old)
	got := Update(sum, 333, 0, old, new_)
	if want := Adler32(new_); got != want {
		t.Fatalf("Update = %#x, want %#x", got, want)
	}
}

func TestUpdateEmptyRange(t *testing.T) {
	buf := []byte("unchanged")
	sum := Adler32(buf)
	if got := Update(sum, uint64(len(buf)), 3, nil, nil); got != sum {
		t.Fatalf("empty-range update changed sum: %#x vs %#x", got, sum)
	}
}

func TestUpdatePanicsOnMismatchedLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Update(0, 10, 0, []byte{1, 2}, []byte{1})
}

func TestUpdatePanicsOnRangeOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Update(0, 4, 3, []byte{1, 2}, []byte{3, 4})
}

// Property P6 (DESIGN.md): incremental range update equals a full
// recomputation for arbitrary buffers and ranges.
func TestUpdateEqualsRecompute(t *testing.T) {
	f := func(seed int64, lenHint uint16, offHint, rangeHint uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(lenHint%8192) + 1
		buf := make([]byte, n)
		rng.Read(buf)
		off := int(offHint) % n
		m := int(rangeHint) % (n - off)
		old := append([]byte(nil), buf[off:off+m]...)
		mod := append([]byte(nil), buf...)
		rng.Read(mod[off : off+m])
		got := Update(Adler32(buf), uint64(n), uint64(off), old, mod[off:off+m])
		return got == Adler32(mod)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Chained updates must compose: applying two successive range updates gives
// the checksum of the final buffer. This is exactly how a transaction with
// multiple modified ranges refreshes an object's checksum.
func TestUpdateComposes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4096) + 64
		buf := make([]byte, n)
		rng.Read(buf)
		sum := Adler32(buf)
		cur := append([]byte(nil), buf...)
		for step := 0; step < 4; step++ {
			off := rng.Intn(n)
			m := rng.Intn(n - off)
			old := append([]byte(nil), cur[off:off+m]...)
			rng.Read(cur[off : off+m])
			sum = Update(sum, uint64(n), uint64(off), old, cur[off:off+m])
		}
		return sum == Adler32(cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Update must match a full recompute when the buffer length, the range's
// offsets and its weights pass the modulus: totals above 65521, ranges
// that straddle a multiple of 65521 counted from the start (byte index)
// or from the end (weight n-i), and ranges longer than the summing
// kernel's reduction block.
func TestUpdateRandomizedAcrossModulus(t *testing.T) {
	const maxTotal = 4*adlerMod + 1000
	rng := rand.New(rand.NewSource(65521))
	base := make([]byte, maxTotal)
	rng.Read(base)
	for i := 0; i < 3000; i++ {
		var total int
		switch i % 3 {
		case 0:
			total = rng.Intn(8192) + 1
		case 1:
			total = adlerMod + rng.Intn(3*adlerMod)
		default:
			total = (rng.Intn(4)+1)*adlerMod + rng.Intn(5) - 2
		}
		buf := base[:total]
		var off, m int
		switch rng.Intn(4) {
		case 0: // anywhere
			off = rng.Intn(total)
			m = rng.Intn(min(total-off, 3*nmax) + 1)
		case 1, 2: // straddle a multiple of 65521 by index or by weight
			k := adlerMod * (rng.Intn(total/adlerMod+1) + 1)
			cross := k % total
			if rng.Intn(2) == 0 {
				cross = total - cross
			}
			off = max(0, cross-rng.Intn(64)-1)
			m = min(total-off, cross-off+rng.Intn(64)+1)
		default: // long range
			off = rng.Intn(total/4 + 1)
			m = rng.Intn(total - off + 1)
		}
		mod := append([]byte(nil), buf...)
		rng.Read(mod[off : off+m])
		got := Update(Adler32(buf), uint64(total), uint64(off), buf[off:off+m], mod[off:off+m])
		if want := Adler32(mod); got != want {
			t.Fatalf("case %d: total %d off %d len %d: Update = %#x, recompute = %#x", i, total, off, m, got, want)
		}
	}
}

func TestUpdateLargeBufferSmallRange(t *testing.T) {
	// The whole point: a small edit in a large object must not require
	// rescanning the object. Verify correctness at a size where it
	// matters (rtree-scale, 4 KB+).
	buf := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(7))
	rng.Read(buf)
	sum := Adler32(buf)
	mod := append([]byte(nil), buf...)
	copy(mod[999000:999016], "sixteen bytes!!!")
	got := Update(sum, uint64(len(buf)), 999000, buf[999000:999016], mod[999000:999016])
	if want := Adler32(mod); got != want {
		t.Fatalf("Update = %#x, want %#x", got, want)
	}
}

func TestCRC32Known(t *testing.T) {
	// CRC32C("123456789") = 0xE3069283, the canonical check value.
	if got := CRC32([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("CRC32C check value = %#x, want 0xE3069283", got)
	}
}

func BenchmarkAdlerFull4K(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Adler32(buf)
	}
}

func BenchmarkAdlerUpdate64of4K(b *testing.B) {
	buf := make([]byte, 4096)
	sum := Adler32(buf)
	old := buf[1000:1064]
	new_ := bytes.Repeat([]byte{9}, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		Update(sum, 4096, 1000, old, new_)
	}
}
