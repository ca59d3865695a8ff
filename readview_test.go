package pangolin

import "testing"

// TestReadViewCatchesScribbleAfterVerifiedRead: a read view verifies on
// every read, so bytes scribbled after a successful verified read fail
// the next read instead of being served.
func TestReadViewCatchesScribbleAfterVerifiedRead(t *testing.T) {
	p, err := Create(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var oid OID
	if err := p.Run(func(tx *Tx) error {
		var data []byte
		var err error
		oid, data, err = tx.Alloc(64, 1)
		for i := range data {
			data[i] = byte(i)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rv := p.ReadView()
	data, err := rv.Get(oid)
	if err != nil || data[10] != 10 {
		t.Fatalf("verified read = (%v, %v)", data, err)
	}
	p.Device().WriteAt(oid.Off+10, []byte{^byte(10), ^byte(11)})
	if _, err := rv.Get(oid); !IsCorruption(err) {
		t.Fatalf("read after scribble = %v, want a CorruptionError", err)
	}
}
