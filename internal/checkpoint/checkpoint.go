// Package checkpoint implements the crash-consistent snapshot format
// used for single-node and distributed recovery: a versioned,
// checksummed binary encoding of everything the HOOI sweep loop needs
// to continue bitwise identically after a crash — factor matrices, the
// core tensor, the sweep counter, the fit-tracker history, and the
// position of the monotone seed schedule.
//
// The format is deliberately dumb: little-endian fixed-width fields, a
// 6-byte magic, a version, an explicit payload length, and a trailing
// CRC-64 (ECMA) over everything that precedes it. Decode verifies the
// checksum before parsing a single field, so a torn or bit-flipped
// file is rejected with a typed error and never yields partial state.
//
// Save writes atomically (temp file + fsync + rename in the same
// directory) and keeps the two most recent checkpoints, so there is
// always a last-good file to fall back to if a crash tears the newest
// one. LoadLatest walks checkpoints newest-first and returns the first
// one that decodes cleanly.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// Typed decode errors. Decode and Read never panic on malformed input
// and never return partial state: the result is either a fully
// validated *State or a nil state with one of these in the chain.
var (
	// ErrBadMagic means the input does not start with the checkpoint
	// magic — it is not a checkpoint file at all.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrVersion means the format version is not the one this build
	// reads: an older file or a newer one.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrTruncated means the input ends before the declared payload
	// and checksum — the classic torn write.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrChecksum means the trailing CRC-64 does not match the bytes.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrCorrupt means the checksum held but the payload is
	// internally inconsistent (counts disagree with available bytes).
	ErrCorrupt = errors.New("checkpoint: corrupt payload")
	// ErrNotFound means no usable checkpoint exists in the directory.
	ErrNotFound = errors.New("checkpoint: no usable checkpoint")
	// ErrMismatch is returned by resume paths when a checkpoint is
	// valid but belongs to a different tensor or configuration.
	ErrMismatch = errors.New("checkpoint: state does not match plan")
)

const (
	magic   = "HTCKPT"
	version = 2

	// headerLen is magic + version (uint16) + payload length (uint32).
	headerLen = len(magic) + 2 + 4
	crcLen    = 8

	// maxPayload bounds the declared payload length so a corrupt
	// header cannot demand an absurd allocation before the length is
	// checked against the actual input size.
	maxPayload = 1 << 40

	// keep is how many most-recent checkpoint files Save retains.
	keep = 2

	filePrefix = "ckpt-"
	fileSuffix = ".htck"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// State is everything needed to resume an interrupted HOOI solve so
// that its fit trajectory continues bitwise identically. Sweep counts
// completed sweeps of the in-progress solve; Step is the number of
// mode solves consumed from the monotone seed schedule (SweepState);
// NormX pins the input tensor's Frobenius norm so a resume against the
// wrong tensor is rejected. The ranks are the factors' column counts.
type State struct {
	Sweep      int
	Step       int64
	SeedBase   int64
	NormX      float64
	Factors    []*dense.Matrix
	Core       *tensor.Dense // nil before the first completed sweep
	FitHistory []float64
}

// validate checks the structural invariants every writer maintains.
func (s *State) validate() error {
	if s == nil {
		return errors.New("checkpoint: nil state")
	}
	if s.Sweep < 0 || s.Step < 0 {
		return fmt.Errorf("checkpoint: negative sweep %d or step %d", s.Sweep, s.Step)
	}
	if len(s.Factors) == 0 {
		return errors.New("checkpoint: no factors")
	}
	for n, f := range s.Factors {
		if f == nil || f.Rows < 0 || f.Cols < 0 || len(f.Data) != f.Rows*f.Cols {
			return fmt.Errorf("checkpoint: malformed factor %d", n)
		}
	}
	return nil
}

// Encode serializes s into a fresh byte slice.
func Encode(s *State) ([]byte, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, encodedSize(s))
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint32(b, 0) // payload length patched below
	payloadStart := len(b)

	b = binary.LittleEndian.AppendUint32(b, uint32(s.Sweep))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Step))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.SeedBase))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.NormX))

	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Factors)))
	for _, f := range s.Factors {
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Cols))
		b = appendFloats(b, f.Data)
	}

	if s.Core != nil {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Core.Dims)))
		for _, d := range s.Core.Dims {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		b = appendFloats(b, s.Core.Data)
	} else {
		b = append(b, 0)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.FitHistory)))
	b = appendFloats(b, s.FitHistory)

	binary.LittleEndian.PutUint32(b[len(magic)+2:], uint32(len(b)-payloadStart))
	b = binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
	return b, nil
}

func encodedSize(s *State) int {
	n := headerLen + 4 + 8 + 8 + 8 + 2 + crcLen
	for _, f := range s.Factors {
		n += 8 + 8*len(f.Data)
	}
	n++ // core flag
	if s.Core != nil {
		n += 2 + 4*len(s.Core.Dims) + 8*len(s.Core.Data)
	}
	n += 4 + 8*len(s.FitHistory)
	return n
}

func appendFloats(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// Decode parses and validates a checkpoint produced by Encode. The
// checksum is verified before any field is interpreted; all counts are
// bounds-checked against the remaining bytes before allocation.
func Decode(b []byte) (*State, error) {
	if len(b) < headerLen {
		if len(b) >= len(magic) && string(b[:len(magic)]) != magic {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint16(b[len(magic):])
	if v != version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, version)
	}
	plen := uint64(binary.LittleEndian.Uint32(b[len(magic)+2:]))
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: declared payload %d bytes", ErrCorrupt, plen)
	}
	total := uint64(headerLen) + plen + crcLen
	if uint64(len(b)) < total {
		return nil, fmt.Errorf("%w: have %d bytes, need %d", ErrTruncated, len(b), total)
	}
	if uint64(len(b)) > total {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, uint64(len(b))-total)
	}
	body := b[:headerLen+int(plen)]
	want := binary.LittleEndian.Uint64(b[len(body):])
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: got %016x, want %016x", ErrChecksum, got, want)
	}

	r := reader{b: body[headerLen:]}
	s := &State{}
	s.Sweep = int(r.u32())
	s.Step = int64(r.u64())
	s.SeedBase = int64(r.u64())
	s.NormX = math.Float64frombits(r.u64())

	nf := int(r.u16())
	if r.err == nil && nf == 0 {
		return nil, fmt.Errorf("%w: zero factors", ErrCorrupt)
	}
	for n := 0; n < nf && r.err == nil; n++ {
		rows := int(r.u32())
		cols := int(r.u32())
		data := r.floats(rows, cols)
		if r.err != nil {
			break
		}
		s.Factors = append(s.Factors, &dense.Matrix{Rows: rows, Cols: cols, Data: data})
	}

	if r.u8() != 0 && r.err == nil {
		nd := int(r.u16())
		if r.err == nil && nd == 0 {
			return nil, fmt.Errorf("%w: zero-order core", ErrCorrupt)
		}
		dims := make([]int, 0, min(nd, 64))
		size := 1
		for m := 0; m < nd && r.err == nil; m++ {
			d := int(r.u32())
			if d <= 0 || (size > 0 && d > math.MaxInt/size) {
				r.fail("core dims overflow")
				break
			}
			size *= d
			dims = append(dims, d)
		}
		data := r.floats(size, 1)
		if r.err == nil {
			c := tensor.NewDense(dims)
			copy(c.Data, data)
			s.Core = c
		}
	}

	nh := int(r.u32())
	s.FitHistory = r.floats(nh, 1)
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d unconsumed payload bytes", len(r.b)))
	}
	if r.err != nil {
		return nil, r.err
	}
	if s.Sweep < 0 || s.Step < 0 {
		return nil, fmt.Errorf("%w: negative sweep or step", ErrCorrupt)
	}
	if len(s.FitHistory) != s.Sweep {
		return nil, fmt.Errorf("%w: %d fit entries for sweep %d", ErrCorrupt, len(s.FitHistory), s.Sweep)
	}
	return s, nil
}

// reader is a bounds-checked little-endian cursor over the payload. A
// short read sets err and every later read returns zero values, so a
// single error check suffices after a parse sequence.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.fail(fmt.Sprintf("need %d bytes, have %d", n, len(r.b)))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// floats reads rows*cols float64s, bounds-checking the product before
// allocating so hostile counts cannot demand huge buffers.
func (r *reader) floats(rows, cols int) []float64 {
	if r.err != nil {
		return nil
	}
	if rows < 0 || cols < 0 || (cols != 0 && rows > math.MaxInt/cols) {
		r.fail(fmt.Sprintf("element count %dx%d overflows", rows, cols))
		return nil
	}
	n := rows * cols
	if n > len(r.b)/8 {
		r.fail(fmt.Sprintf("%d float64s exceed %d remaining bytes", n, len(r.b)))
		return nil
	}
	b := r.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Write encodes s and writes it to w.
func Write(w io.Writer, s *State) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Read decodes a checkpoint from r (reading it fully).
func Read(r io.Reader) (*State, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return Decode(b)
}

// FileName returns the canonical checkpoint file name for a sweep.
func FileName(sweep int) string {
	return fmt.Sprintf("%s%09d%s", filePrefix, sweep, fileSuffix)
}

// sweepOf parses the sweep counter out of a checkpoint file name,
// returning -1 for names that are not checkpoints.
func sweepOf(name string) int {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return -1
	}
	mid := name[len(filePrefix) : len(name)-len(fileSuffix)]
	if len(mid) == 0 {
		return -1
	}
	n := 0
	for _, c := range mid {
		if c < '0' || c > '9' || n > math.MaxInt/10 {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Save atomically writes s into dir as ckpt-<sweep>.htck: the bytes go
// to a temp file in the same directory, are fsynced, and are renamed
// over the final name, so a crash at any point leaves either the old
// file or the complete new one. Older checkpoints beyond the two most
// recent are pruned. The directory is created if missing. Save returns
// the final path.
func Save(dir string, s *State) (string, error) {
	b, err := Encode(s)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	final := filepath.Join(dir, FileName(s.Sweep))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	// Best effort: persist the rename itself. Not all filesystems
	// support fsync on directories; recovery only needs one of the
	// kept files to survive.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	prune(dir)
	return final, nil
}

// prune removes checkpoint files beyond the `keep` newest (by sweep).
func prune(dir string) {
	sweeps := list(dir)
	for _, sw := range sweeps[min(keep, len(sweeps)):] {
		os.Remove(filepath.Join(dir, FileName(sw)))
	}
}

// list returns the sweeps of all checkpoint files in dir, newest first.
func list(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var sweeps []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if sw := sweepOf(e.Name()); sw >= 0 {
			sweeps = append(sweeps, sw)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sweeps)))
	return sweeps
}

// LoadLatest returns the newest checkpoint in dir that decodes
// cleanly, falling back past torn or corrupt files to the last good
// one. It returns the loaded state and the path it came from. When the
// directory has no checkpoint files at all — or none of them decode —
// the error wraps ErrNotFound so callers can choose a fresh start.
func LoadLatest(dir string) (*State, string, error) {
	sweeps := list(dir)
	if len(sweeps) == 0 {
		return nil, "", fmt.Errorf("%w in %s", ErrNotFound, dir)
	}
	var errs []error
	for _, sw := range sweeps {
		path := filepath.Join(dir, FileName(sw))
		b, err := os.ReadFile(path)
		if err == nil {
			var s *State
			if s, err = Decode(b); err == nil {
				return s, path, nil
			}
		}
		errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(path), err))
	}
	return nil, "", fmt.Errorf("%w in %s: %w", ErrNotFound, dir, errors.Join(errs...))
}
