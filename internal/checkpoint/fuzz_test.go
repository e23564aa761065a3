package checkpoint

import (
	"errors"
	"testing"
)

// FuzzCheckpointDecode asserts the decode contract: arbitrary input —
// malformed, truncated, bit-flipped — must produce a typed error and
// never panic, and a successful decode must re-encode to an equivalent
// checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	for _, sweep := range []int{0, 1, 3} {
		s := sampleState(sweep)
		if sweep == 0 {
			s.Core = nil
		}
		b, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(encodeV1(f, sampleState(3)))
	f.Add([]byte{})
	f.Add([]byte("HTCKPT"))
	f.Add([]byte("not a checkpoint at all, just bytes"))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			if s != nil {
				t.Fatalf("error %v with non-nil state", err)
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A valid decode must survive a round trip bit-for-bit.
		b2, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encode of decoded state failed: %v", err)
		}
		s2, err := Decode(b2)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		statesEqual(t, s, s2)
	})
}
