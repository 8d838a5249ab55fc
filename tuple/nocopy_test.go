package tuple

import (
	"bytes"
	"testing"
)

// TestDecodeNoCopyAliasesAndCopyDetaches verifies the lifetime contract:
// bytes fields of a no-copy decode alias the source buffer (mutating the
// buffer shows through), while Copy produces a deep clone that does not.
func TestDecodeNoCopyAliasesAndCopyDetaches(t *testing.T) {
	orig := T(String("tag"), Bytes([]byte{1, 2, 3, 4}), Nested(T(Bytes([]byte{9, 9}))))
	data := orig.AppendBinary(nil)

	aliased, rest, err := DecodeTupleNoCopy(data)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeTupleNoCopy: %v (rest %d)", err, len(rest))
	}
	if !aliased.Equal(orig) {
		t.Fatalf("decoded %v, want %v", aliased, orig)
	}
	detached := aliased.Copy()

	// Flip every byte of the buffer: the aliased view must change, the
	// deep copy must not.
	for i := range data {
		data[i] ^= 0xFF
	}
	if aliased.Equal(orig) {
		t.Fatal("no-copy decode did not alias the buffer")
	}
	if !detached.Equal(orig) {
		t.Fatal("Copy still aliases the decode buffer")
	}
	b, err := detached.BytesAt(1)
	if err != nil || !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatalf("detached bytes field = %v, %v", b, err)
	}
}

// TestCopyIndependence verifies Copy on an ordinary tuple shares no bytes
// storage with its source, including inside nested tuples.
func TestCopyIndependence(t *testing.T) {
	src := []byte{7, 8}
	orig := T(Bytes(src), Nested(T(Bytes(src))))
	cp := orig.Copy()
	// Mutate the original's backing storage via its internal slice. Field
	// accessors copy, so reach in through the raw fields.
	orig.fields[0].b[0] = 42
	orig.fields[1].t[0].b[0] = 42
	if b, _ := cp.BytesAt(0); b[0] != 7 {
		t.Fatalf("copy shares top-level bytes storage: %v", b)
	}
	nested, _ := cp.TupleAt(1)
	if b, _ := nested.BytesAt(0); b[0] != 7 {
		t.Fatalf("copy shares nested bytes storage: %v", b)
	}
}

// TestDecodeIntoAliasesStringsAndUsesStorage: DecodeTupleInto puts the
// top level in the caller's storage when it fits and aliases strings as
// well as bytes; Copy detaches both, nested ones included.
func TestDecodeIntoAliasesStringsAndUsesStorage(t *testing.T) {
	orig := T(String("tag"), Bytes([]byte{1, 2, 3, 4}), Nested(T(String("in"))))
	data := orig.AppendBinary(nil)
	var storage [3]Field
	got, rest, err := DecodeTupleInto(data, storage[:0])
	if err != nil || len(rest) != 0 || !got.Equal(orig) {
		t.Fatalf("DecodeTupleInto: %v, %v (rest %d)", got, err, len(rest))
	}
	if &got.fields[0] != &storage[0] {
		t.Fatal("three fields did not go into storage for three")
	}
	detached := got.Copy()
	for i := range data {
		data[i] ^= 0xFF
	}
	if got.fields[0].s == "tag" || got.fields[2].t[0].s == "in" {
		t.Fatal("strings were copied, not aliased")
	}
	if !detached.Equal(orig) {
		t.Fatal("Copy still aliases the decode buffer")
	}

	small, _, err := DecodeTupleInto(orig.AppendBinary(nil), storage[:0:2])
	if err != nil || !small.Equal(orig) || &small.fields[0] == &storage[0] {
		t.Fatalf("three fields for storage of two: %v, %v, in storage %v", small, err, &small.fields[0] == &storage[0])
	}
}
