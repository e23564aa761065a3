package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

func sampleState(sweep int) *State {
	f0 := dense.NewMatrix(4, 2)
	f1 := dense.NewMatrix(3, 2)
	for i := range f0.Data {
		f0.Data[i] = 0.25*float64(i) - 1
	}
	for i := range f1.Data {
		f1.Data[i] = -0.5 * float64(i)
	}
	g := tensor.NewDense([]int{2, 2})
	for i := range g.Data {
		g.Data[i] = float64(i) * 1.5
	}
	hist := make([]float64, sweep)
	for i := range hist {
		hist[i] = 0.1 * float64(i+1)
	}
	return &State{
		Sweep:      sweep,
		Step:       int64(2 * sweep),
		SeedBase:   42,
		NormX:      math.Sqrt(17),
		Factors:    []*dense.Matrix{f0, f1},
		Core:       g,
		FitHistory: hist,
	}
}

// encodeV1 builds s in the version-1 layout by hand: version 2's fields
// with a warm-start flag byte after the seed and the chosen ranks (a
// uint16 count, then one uint32 per mode) after the fit history.
func encodeV1(tb testing.TB, s *State) []byte {
	tb.Helper()
	v2, err := Encode(s)
	if err != nil {
		tb.Fatal(err)
	}
	payload := v2[headerLen : len(v2)-crcLen]
	const seedEnd = 4 + 8 + 8 // sweep, step, seed
	b := append([]byte(magic), 1, 0, 0, 0, 0, 0)
	b = append(b, payload[:seedEnd]...)
	b = append(b, 1)
	b = append(b, payload[seedEnd:]...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Factors)))
	for _, f := range s.Factors {
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Cols))
	}
	binary.LittleEndian.PutUint32(b[len(magic)+2:], uint32(len(b)-headerLen))
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
}

func statesEqual(t *testing.T, a, b *State) {
	t.Helper()
	if a.Sweep != b.Sweep || a.Step != b.Step || a.SeedBase != b.SeedBase ||
		math.Float64bits(a.NormX) != math.Float64bits(b.NormX) {
		t.Fatalf("scalar fields differ: %+v vs %+v", a, b)
	}
	if len(a.Factors) != len(b.Factors) {
		t.Fatalf("factor count %d vs %d", len(a.Factors), len(b.Factors))
	}
	for n := range a.Factors {
		fa, fb := a.Factors[n], b.Factors[n]
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols {
			t.Fatalf("factor %d shape %dx%d vs %dx%d", n, fa.Rows, fa.Cols, fb.Rows, fb.Cols)
		}
		for i := range fa.Data {
			if math.Float64bits(fa.Data[i]) != math.Float64bits(fb.Data[i]) {
				t.Fatalf("factor %d element %d differs", n, i)
			}
		}
	}
	if (a.Core == nil) != (b.Core == nil) {
		t.Fatalf("core presence differs")
	}
	if a.Core != nil {
		if len(a.Core.Dims) != len(b.Core.Dims) {
			t.Fatalf("core order differs")
		}
		for m := range a.Core.Dims {
			if a.Core.Dims[m] != b.Core.Dims[m] {
				t.Fatalf("core dim %d differs", m)
			}
		}
		for i := range a.Core.Data {
			if math.Float64bits(a.Core.Data[i]) != math.Float64bits(b.Core.Data[i]) {
				t.Fatalf("core element %d differs", i)
			}
		}
	}
	if len(a.FitHistory) != len(b.FitHistory) {
		t.Fatalf("history length differs")
	}
	for i := range a.FitHistory {
		if math.Float64bits(a.FitHistory[i]) != math.Float64bits(b.FitHistory[i]) {
			t.Fatalf("history entry %d differs", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, sweep := range []int{0, 1, 5} {
		s := sampleState(sweep)
		if sweep == 0 {
			s.Core = nil
		}
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		statesEqual(t, s, got)

		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err = Read(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		statesEqual(t, s, got)
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	good, err := Encode(sampleState(3))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}, ErrBadMagic},
		{"short magic", func(b []byte) []byte { return []byte("XX") }, ErrTruncated},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(magic)] = 99
			return c
		}, ErrVersion},
		{"torn tail", func(b []byte) []byte { return b[:len(b)-9] }, ErrTruncated},
		{"torn header", func(b []byte) []byte { return b[:headerLen-1] }, ErrTruncated},
		{"bit flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerLen+20] ^= 0x01
			return c
		}, ErrChecksum},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }, ErrCorrupt},
	}
	for _, tc := range cases {
		s, err := Decode(tc.mut(good))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got error %v, want %v", tc.name, err, tc.want)
		}
		if s != nil {
			t.Errorf("%s: got non-nil state with error", tc.name)
		}
	}
}

// A version-1 file, which carried a warm-start flag and the chosen
// ranks, is refused whole; LoadLatest passes over it to a version-2 file
// and, with none, reports ErrNotFound, so a resume starts fresh.
func TestVersion1IsRefused(t *testing.T) {
	v1 := encodeV1(t, sampleState(4))
	if s, err := Decode(v1); !errors.Is(err, ErrVersion) || s != nil {
		t.Fatalf("version-1 decode: state %v, error %v; want ErrVersion", s, err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName(4)), v1, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNotFound) || !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 file alone: got %v, want ErrNotFound wrapping ErrVersion", err)
	}
	if _, err := Save(dir, sampleState(2)); err != nil {
		t.Fatal(err)
	}
	s, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("version-1 and version-2 files: %v", err)
	}
	if s.Sweep != 2 {
		t.Fatalf("loaded sweep %d from %s, want the version-2 file's 2", s.Sweep, path)
	}
	statesEqual(t, sampleState(2), s)
}

func TestSaveLoadLatestAndPrune(t *testing.T) {
	dir := t.TempDir()
	for sweep := 1; sweep <= 4; sweep++ {
		if _, err := Save(dir, sampleState(sweep)); err != nil {
			t.Fatalf("save sweep %d: %v", sweep, err)
		}
	}
	// Only the two newest survive pruning.
	ents, _ := os.ReadDir(dir)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("want 2 kept checkpoints, have %v", names)
	}
	s, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if s.Sweep != 4 {
		t.Fatalf("loaded sweep %d from %s, want 4", s.Sweep, path)
	}
	statesEqual(t, sampleState(4), s)
}

func TestLoadLatestFallsBackPastTornFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, sampleState(2)); err != nil {
		t.Fatal(err)
	}
	path4, err := Save(dir, sampleState(4))
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest file in half, as a crash mid-write would.
	b, err := os.ReadFile(path4)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path4, b[:len(b)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	s, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if s.Sweep != 2 {
		t.Fatalf("loaded sweep %d from %s, want fallback to 2", s.Sweep, path)
	}
}

func TestLoadLatestNotFound(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty dir: got %v, want ErrNotFound", err)
	}
	if _, _, err := LoadLatest(filepath.Join(dir, "missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dir: got %v, want ErrNotFound", err)
	}
	// A directory whose only checkpoint is corrupt also reports
	// ErrNotFound so recovery can start fresh.
	if _, err := Save(dir, sampleState(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileName(1)), []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNotFound) {
		t.Fatalf("all-corrupt dir: got %v, want ErrNotFound", err)
	}
}

func TestSweepOf(t *testing.T) {
	if got := sweepOf(FileName(37)); got != 37 {
		t.Fatalf("sweepOf round trip: %d", got)
	}
	for _, bad := range []string{"ckpt-.htck", "ckpt-12.tmp", "other", "ckpt-9x.htck"} {
		if got := sweepOf(bad); got != -1 {
			t.Fatalf("sweepOf(%q) = %d, want -1", bad, got)
		}
	}
}
