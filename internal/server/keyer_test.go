package server

import (
	"bytes"
	"testing"
)

func TestDecimalKeyerRoundTrip(t *testing.T) {
	d := DecimalKeyer{KeyWidth: 20}
	for _, key := range []string{"0", "1", "7", "42", "1048575"} {
		k, err := d.Encode([]byte(key))
		if err != nil {
			t.Fatalf("Encode(%q): %v", key, err)
		}
		if got := string(d.Decode(k)); got != key {
			t.Errorf("Decode(Encode(%q)) = %q", key, got)
		}
	}
}

func TestDecimalKeyerRejects(t *testing.T) {
	d := DecimalKeyer{KeyWidth: 20}
	for _, key := range []string{"", "007", "-1", "+1", " 1", "1 ", "abc", "1a", "1048576", "99999999999999999999999"} {
		if k, err := d.Encode([]byte(key)); err == nil {
			t.Errorf("Encode(%q) = %d, want error", key, k)
		}
	}
}

func TestBytesKeyerRoundTrip(t *testing.T) {
	b := BytesKeyer{}
	keys := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abcdefg"),
		{0}, {0, 0}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte("a\x00b"), []byte("1234567"),
	}
	seen := map[uint64][]byte{}
	for _, key := range keys {
		k, err := b.Encode(key)
		if err != nil {
			t.Fatalf("Encode(%q): %v", key, err)
		}
		if k >= 1<<b.Width() {
			t.Fatalf("Encode(%q) = %d outside the %d-bit space", key, k, b.Width())
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("collision: %q and %q both encode to %d", prev, key, k)
		}
		seen[k] = key
		if got := b.Decode(k); !bytes.Equal(got, key) {
			t.Errorf("Decode(Encode(%q)) = %q", key, got)
		}
	}
	for _, key := range [][]byte{{}, []byte("12345678")} {
		if _, err := b.Encode(key); err == nil {
			t.Errorf("Encode(%q) accepted, want error", key)
		}
	}
}

// TestBytesKeyerOrder: trie-key order must equal lexicographic wire-key
// order, so SCAN walks keys in the order a client expects.
func TestBytesKeyerOrder(t *testing.T) {
	b := BytesKeyer{}
	sorted := [][]byte{
		{0}, {0, 0}, {0, 1}, []byte("a"), []byte("a\x00"), []byte("a\x00\x00"),
		[]byte("a\x01"), []byte("ab"), []byte("abcdefg"), []byte("b"), {0xff}, {0xff, 0x00},
	}
	for i := 1; i < len(sorted); i++ {
		prev, _ := b.Encode(sorted[i-1])
		cur, _ := b.Encode(sorted[i])
		if prev >= cur {
			t.Errorf("order broken: %q (%d) !< %q (%d)", sorted[i-1], prev, sorted[i], cur)
		}
	}
}

// TestBytesKeyerExhaustiveShort proves injectivity exhaustively for all
// 1- and 2-byte keys (the padding/length-tag interplay lives there).
func TestBytesKeyerExhaustiveShort(t *testing.T) {
	b := BytesKeyer{}
	seen := make(map[uint64]bool, 256+65536)
	n := 0
	for x := 0; x < 256; x++ {
		k, err := b.Encode([]byte{byte(x)})
		if err != nil || seen[k] {
			t.Fatalf("1-byte %02x: err=%v dup=%v", x, err, seen[k])
		}
		seen[k] = true
		n++
	}
	for x := 0; x < 65536; x++ {
		k, err := b.Encode([]byte{byte(x >> 8), byte(x)})
		if err != nil || seen[k] {
			t.Fatalf("2-byte %04x: err=%v dup=%v", x, err, seen[k])
		}
		seen[k] = true
		n++
	}
	if n != 256+65536 {
		t.Fatalf("covered %d keys", n)
	}
}

// TestDecodeAppend: DecodeAppend must agree with Decode and extend the
// caller's buffer in place, and the Encode/DecodeAppend pair must be
// allocation-free once scratch is warm, so a dump walk can render every
// key through one scratch buffer.
func TestDecodeAppend(t *testing.T) {
	b := BytesKeyer{}
	d := DecimalKeyer{KeyWidth: 63}
	scratch := append([]byte(nil), "prefix:"...)
	for _, key := range [][]byte{[]byte("a"), []byte("abcdefg"), {0, 1, 2}} {
		k, err := b.Encode(key)
		if err != nil {
			t.Fatal(err)
		}
		got := b.DecodeAppend(scratch, k)
		if !bytes.Equal(got, append(append([]byte(nil), scratch...), key...)) {
			t.Errorf("DecodeAppend(%q, Encode(%q)) = %q", scratch, key, got)
		}
	}
	for _, key := range []string{"0", "42", "9223372036854775807"} {
		k, err := d.Encode([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if got := d.DecodeAppend(nil, k); string(got) != key {
			t.Errorf("decimal DecodeAppend = %q, want %q", got, key)
		}
	}

	wire := []byte("key:123")
	buf := make([]byte, 0, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		k, err := b.Encode(wire)
		if err != nil {
			panic(err)
		}
		if buf = b.DecodeAppend(buf[:0], k); len(buf) != len(wire) {
			panic("lost bytes")
		}
	}); allocs != 0 {
		t.Errorf("bytes Encode+DecodeAppend allocates %.1f/op, pinned at 0", allocs)
	}
	num := []byte("123456789")
	if allocs := testing.AllocsPerRun(100, func() {
		k, err := d.Encode(num)
		if err != nil {
			panic(err)
		}
		if buf = d.DecodeAppend(buf[:0], k); len(buf) != len(num) {
			panic("lost bytes")
		}
	}); allocs != 0 {
		t.Errorf("decimal Encode+DecodeAppend allocates %.1f/op, pinned at 0", allocs)
	}
}

func TestNewKeyer(t *testing.T) {
	for _, name := range []string{"bytes", "decimal"} {
		k, err := NewKeyer(name)
		if err != nil || k.Name() != name {
			t.Errorf("NewKeyer(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := NewKeyer("md5"); err == nil {
		t.Error("NewKeyer must reject unknown names")
	}
	// The widths must be accepted by the sharded map.
	for _, name := range []string{"bytes", "decimal"} {
		k, _ := NewKeyer(name)
		if _, err := New(Config{Keyer: k}); err != nil {
			t.Errorf("server over %s keyer: %v", name, err)
		}
	}
}
