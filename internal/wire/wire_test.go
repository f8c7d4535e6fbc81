package wire

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Raw([]byte("MAGI\x01"))
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.F64(3.5)
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	e.Blob([]byte{1, 2, 3})
	e.Raw([]byte{4, 5})

	d := NewDecoder(e.Bytes())
	d.Magic("MAGI\x01")
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Fatalf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.F64(); got != 3.5 {
		t.Fatalf("F64 = %g", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.Str(16); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Blob(16); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Blob = %v", got)
	}
	if got := d.Raw(2); len(got) != 2 || got[1] != 5 {
		t.Fatalf("Raw = %v", got)
	}
	if d.Raw(1) != nil || d.Err() == nil {
		t.Fatal("Raw past the end did not fail")
	}
	d = NewDecoder(e.Bytes())
	d.Raw(len(e.Bytes()))
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	e := NewEncoder(0)
	e.U64(99)
	e.Str("abcdef")
	full := e.Bytes()
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		d.U64()
		d.Str(1 << 10)
		if d.Done() == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", n)
		}
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	d.U64() // fails
	if d.Err() == nil {
		t.Fatal("no error after short read")
	}
	// Everything after the failure returns zero values without panicking.
	if d.U32() != 0 || d.Str(10) != "" || d.Blob(10) != nil || d.Bool() {
		t.Fatal("post-error reads returned non-zero values")
	}
	if !errors.Is(d.Done(), ErrCorrupt) {
		t.Fatalf("Done = %v", d.Done())
	}
}

func TestTrailingBytes(t *testing.T) {
	e := NewEncoder(0)
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if !errors.Is(d.Done(), ErrCorrupt) {
		t.Fatal("trailing byte accepted")
	}
}

func TestBadBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestCountGuard(t *testing.T) {
	e := NewEncoder(0)
	e.U32(1 << 31) // implausible count
	d := NewDecoder(e.Bytes())
	if d.Count(8) != 0 || d.Err() == nil {
		t.Fatal("oversized count accepted")
	}
	// A plausible count passes.
	e2 := NewEncoder(0)
	e2.U32(2)
	e2.U64(1)
	e2.U64(2)
	d2 := NewDecoder(e2.Bytes())
	if got := d2.Count(8); got != 2 || d2.Err() != nil {
		t.Fatalf("Count = %d, err %v", got, d2.Err())
	}
}

func TestStrMaxLen(t *testing.T) {
	e := NewEncoder(0)
	e.Str("too long for the cap")
	d := NewDecoder(e.Bytes())
	d.Str(4)
	if d.Err() == nil {
		t.Fatal("string above maxLen accepted")
	}
}

func TestFailf(t *testing.T) {
	d := NewDecoder(nil)
	d.Failf("bad field %d", 3)
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Failf err = %v", d.Err())
	}
}
