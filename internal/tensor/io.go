package tensor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"unicode/utf8"

	"hypertensor/internal/par"
)

// The .tns text format (as used by FROSTT and SPLATT): one nonzero per
// line, N 1-based integer coordinates followed by a floating-point
// value, '#' comments and blank lines ignored. Dimensions are inferred
// as the per-mode maxima unless a "# dims: d1 d2 ..." header is present.

// WriteTNS writes the tensor in .tns format with a dims header so the
// exact mode sizes round-trip.
func WriteTNS(w io.Writer, t *COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	// Lines are built in the writer's own free space, so a line that
	// fits is never copied.
	line := append(bw.AvailableBuffer(), "# dims:"...)
	for _, d := range t.Dims {
		line = strconv.AppendInt(append(line, ' '), int64(d), 10)
	}
	if _, err := bw.Write(append(line, '\n')); err != nil {
		return err
	}
	for i := 0; i < t.NNZ(); i++ {
		line = bw.AvailableBuffer()
		for m := range t.Dims {
			line = append(strconv.AppendInt(line, int64(t.Idx[m][i])+1, 10), ' ')
		}
		line = strconv.AppendFloat(line, t.Val[i], 'g', 17, 64)
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxIndex bounds mode sizes and coordinates: indices are stored as
// int32 throughout the library.
const maxIndex = 1 << 31

var newline = []byte{'\n'}

// tnsChunkBytes is the least share of a file image parsed on a
// goroutine of its own; tests lower it to cut small inputs everywhere.
var tnsChunkBytes = 1 << 16

// ReadTNS parses a .tns stream. If no dims header is present the mode
// sizes are the maxima seen per mode. Malformed input — short lines,
// non-numeric fields, non-finite values, inconsistent arity,
// out-of-range or non-int32 indices, duplicate or bad headers — is
// rejected with an error naming the offending line.
func ReadTNS(r io.Reader) (*COO, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, tnsErr(data, len(data), "%w", err)
	}
	return parseTNS(data, par.DefaultThreads(0))
}

// parseTNS parses a whole file image. The image is cut at newlines into
// one chunk per thread and every chunk is parsed as if the file began
// there, straight into the result's columns: each column is allocated
// once, with a slot per line, and each chunk owns the window of slots
// of its lines. The columns' count is the arity of the image's first
// data line. The guess "as if the file began there" holds when the
// chunks after the first contain no error and no header, have the first
// chunk's arity and stay inside its mode sizes. Otherwise the image is
// read again as one chunk, line by line, so the tensor and the first
// error are a serial reader's whatever the thread count. Every
// goroutine reads the image under recoverFault, so an image whose pages
// vanish under the parse yields an error.
func parseTNS(data []byte, threads int) (_ *COO, err error) {
	defer recoverFault(&err, debug.SetPanicOnFault(true))
	size := max(tnsChunkBytes, (len(data)+threads-1)/threads)
	chunks := make([]tnsChunk, max(1, (len(data)+size-1)/size))
	cut := make([]int, len(chunks)+1) // chunk k is data[cut[k]:cut[k+1]]
	for k := range cut {
		// Chunk k starts after the first newline at or past byte k*size-1.
		p := min(k*size, len(data))
		if p > 0 && p < len(data) {
			if i := bytes.IndexByte(data[p-1:], '\n'); i >= 0 {
				p += i
			} else {
				p = len(data)
			}
		}
		cut[k] = p
	}
	slot := make([]int, len(chunks)+1) // chunk k's window is slots slot[k]:slot[k+1]
	par.For(len(chunks), threads, 1, func(k int) {
		defer recoverFault(&chunks[k].err, debug.SetPanicOnFault(true))
		lines := data[cut[k]:cut[k+1]]
		slot[k+1] = bytes.Count(lines, newline)
		if len(lines) > 0 && lines[len(lines)-1] != '\n' {
			slot[k+1]++
		}
	})
	for k := range chunks {
		if err := chunks[k].err; err != nil {
			return nil, err
		}
		slot[k+1] += slot[k]
	}
	line, _, _ := bytes.Cut(data[rowOffset(data, 0):], newline)
	idx := make([][]int32, max(0, len(fields(bytes.TrimSpace(line), nil))-1))
	for m := range idx {
		idx[m] = make([]int32, slot[len(chunks)])
	}
	val := make([]float64, slot[len(chunks)])
	par.For(len(chunks), threads, 1, func(k int) { chunks[k].parse(data, cut[k], cut[k+1], idx, val, slot[k]) })

	first := &chunks[0]
	arity := first.arity()
	for k := 1; k < len(chunks) && first.err == nil; k++ {
		c := &chunks[k]
		fits := c.err == nil && c.dims == nil && (c.order == -1 || arity == -1 || c.order == arity)
		for m := 0; fits && m < len(first.dims) && m < len(c.top); m++ {
			fits = int(c.top[m]) < first.dims[m]
		}
		if !fits {
			chunks = chunks[:1]
			first.parse(data, 0, len(data), idx, val, 0)
			arity = first.arity()
		} else if c.order != -1 {
			arity = c.order
		}
	}
	switch {
	case first.err != nil:
		return nil, first.err
	case arity == -1:
		return nil, fmt.Errorf("tns: empty input")
	}
	dims := first.dims
	if dims == nil {
		dims = make([]int, arity)
		for k := range chunks {
			for m, x := range chunks[k].top {
				dims[m] = max(dims[m], int(x)+1)
			}
		}
	}
	// Move the chunks' rows together over the slots that blank, comment
	// and header lines left empty. A header-only gap at the top of the
	// image moves nothing: the columns start after it.
	lo, n := -1, 0
	for k := range chunks {
		c := &chunks[k]
		if c.n == 0 {
			continue
		}
		if lo == -1 {
			lo = c.first
		}
		if c.first != lo+n {
			for m := range idx {
				copy(idx[m][lo+n:], idx[m][c.first:c.first+c.n])
			}
			copy(val[lo+n:], val[c.first:c.first+c.n])
		}
		n += c.n
	}
	if n == 0 {
		return NewCOO(dims, 0), nil
	}
	t := &COO{Dims: dims, Idx: make([][]int32, len(idx)), Val: val[lo : lo+n]}
	for m := range idx {
		t.Idx[m] = idx[m][lo : lo+n]
	}
	// Nonzeros ahead of a late header were accepted before the mode sizes
	// were known; a line-by-line reader checks them last, and so do we.
	for i := 0; i < first.hdrRows; i++ {
		for m, d := range dims {
			if x := int(t.Idx[m][i]); x >= d {
				return nil, tnsErr(data, rowOffset(data, i), "tensor: coordinate %d out of range [0,%d) in mode %d", x, d, m)
			}
		}
	}
	return t, nil
}

// tnsChunk is the parse of a run of lines: what they fixed — the arity,
// by the first data line, and the mode sizes, by the header — where
// their nonzeros went, and the first error if one stopped it.
type tnsChunk struct {
	order   int   // -1 until a data line is seen
	dims    []int // nil until a header is seen
	dimsOff int   // byte offset of the header line
	hdrRows int   // nonzeros ahead of the header
	lo      int   // byte offset of the chunk's first line
	idx     [][]int32
	val     []float64
	first   int     // the chunk's nonzeros are idx[m][first:first+n]
	n       int     // and val[first:first+n]
	top     []int32 // largest index per mode
	toks    [][]byte
	err     error
}

// arity returns the number of modes the chunk's lines fixed, or -1.
func (c *tnsChunk) arity() int {
	if c.order == -1 && c.dims != nil {
		return len(c.dims)
	}
	return c.order
}

// parse reads the lines of data[lo:hi) as if nothing preceded them,
// stopping at the first malformed one. Their nonzeros go to the columns
// idx and val, whose slots from slot on are one per line: the first
// data line takes its line's slot, so the lines ahead of it leave
// theirs empty, and every later nonzero takes the next slot.
func (c *tnsChunk) parse(data []byte, lo, hi int, idx [][]int32, val []float64, slot int) {
	*c = tnsChunk{order: -1, lo: lo, idx: idx, val: val, first: slot}
	defer recoverFault(&c.err, debug.SetPanicOnFault(true))
	for p := lo; p < hi && c.err == nil; {
		if c.order == len(c.idx) {
			if p = c.fastRows(data[:hi], p); p == hi {
				break
			}
		} else if c.order != -1 {
			break // the columns have another arity: the serial re-read decides
		}
		p = c.line(data, p, hi)
	}
}

// fastRows parses the data lines from b[p:] that have the common shape
// — [ \t]*, the chunk's order of coordinates of 1-9 digits each followed
// by [ \t]+, a value parseValue takes, [ \t\r]*, then a newline or the
// end — and returns the offset of the first line of another shape. The
// general path makes the same nonzero of each such line; on any other it
// decides, and words the errors.
func (c *tnsChunk) fastRows(b []byte, p int) int {
	idx, val, top, dims := c.idx, c.val, c.top, c.dims
	slot := c.first + c.n
rows:
	for p < len(b) {
		i := p
		for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
			i++
		}
		for m := range idx {
			x, j := digitRun(b, i, 0)
			if x < 1 || j-i > 9 || j == len(b) || (b[j] != ' ' && b[j] != '\t') || (dims != nil && x > uint64(dims[m])) {
				break rows
			}
			// A line that falls back rewrites this slot, and its
			// coordinates are the same numbers there, so top may grow now.
			idx[m][slot] = int32(x - 1)
			top[m] = max(top[m], int32(x-1))
			for i = j + 1; i < len(b) && (b[i] == ' ' || b[i] == '\t'); i++ {
			}
		}
		v, k, ok := parseValue(b[i:])
		if !ok {
			break
		}
		for i += k; i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r'); i++ {
		}
		if i < len(b) {
			if b[i] != '\n' {
				break
			}
			i++
		}
		val[slot] = v
		slot++
		p = i
	}
	c.n = slot - c.first
	return p
}

// line parses the line at data[off:hi), up to its newline, with every
// rule of the format, and returns the offset of the next line.
func (c *tnsChunk) line(data []byte, off, hi int) int {
	line, next := data[off:hi], hi
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, next = line[:i], off+i+1
	}
	if line = bytes.TrimSpace(line); len(line) == 0 {
		return next
	}
	if line[0] == '#' {
		if after, ok := bytes.CutPrefix(line, []byte("# dims:")); ok {
			c.err = c.header(data, off, string(after))
			c.hdrRows = c.n
		}
		return next
	}
	c.toks = fields(line, c.toks)
	toks := c.toks
	if c.order == -1 {
		if len(toks) < 2 {
			c.err = tnsErr(data, off, "need at least one coordinate and a value")
			return next
		}
		if c.dims != nil && len(c.dims) != len(toks)-1 {
			c.err = tnsErr(data, off, "%d coordinates but dims header (line %d) has %d modes",
				len(toks)-1, lineAt(data, c.dimsOff), len(c.dims))
			return next
		}
		c.order = len(toks) - 1
		c.first += bytes.Count(data[c.lo:off], newline)
		c.top = make([]int32, c.order)
		if c.order != len(c.idx) {
			return next
		}
	}
	if len(toks) != c.order+1 {
		c.err = tnsErr(data, off, "expected %d fields, got %d", c.order+1, len(toks))
		return next
	}
	if c.err = c.row(data, off, toks, c.first+c.n); c.err == nil {
		c.n++
	}
	return next
}

// row parses the fields of one data line into the given slot.
func (c *tnsChunk) row(data []byte, off int, toks [][]byte, slot int) error {
	for m, tok := range toks[:c.order] {
		// Every writer spells a coordinate as a run of digits; at most 18
		// fit an int.
		u, n := digitRun(tok, 0, 0)
		x := int(u)
		if n != len(tok) || n > 18 {
			// Signs, long runs and junk: strconv decides, and words the error.
			var err error
			if x, err = strconv.Atoi(string(tok)); err != nil {
				return tnsErr(data, off, "bad coordinate %q in mode %d: %v", tok, m+1, err)
			}
		}
		switch {
		case x < 1:
			return tnsErr(data, off, "coordinates are 1-based, got %d in mode %d", x, m+1)
		case x >= maxIndex:
			return tnsErr(data, off, "coordinate %d in mode %d exceeds the int32 index range", x, m+1)
		case c.dims != nil && x > c.dims[m]:
			return tnsErr(data, off, "coordinate %d out of range [1,%d] in mode %d", x, c.dims[m], m+1)
		}
		c.idx[m][slot] = int32(x - 1)
		c.top[m] = max(c.top[m], int32(x-1))
	}
	tok := toks[c.order]
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return tnsErr(data, off, "bad value %q: %v", tok, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return tnsErr(data, off, "non-finite value %q", tok)
	}
	c.val[slot] = v
	return nil
}

// header parses what follows "# dims:" on the line at byte offset off.
func (c *tnsChunk) header(data []byte, off int, rest string) error {
	if c.dims != nil {
		return tnsErr(data, off, "duplicate dims header (first on line %d)", lineAt(data, c.dimsOff))
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return tnsErr(data, off, "empty dims header")
	}
	dims := make([]int, len(fields))
	for m, f := range fields {
		d, err := strconv.Atoi(f)
		switch {
		case err != nil:
			return tnsErr(data, off, "bad dims header entry %q: %v", f, err)
		case d <= 0:
			return tnsErr(data, off, "mode size %d must be positive", d)
		case d >= maxIndex:
			return tnsErr(data, off, "mode size %d exceeds the int32 index range", d)
		}
		dims[m] = d
	}
	if c.order != -1 && len(dims) != c.order {
		return tnsErr(data, off, "dims header has %d modes but data has %d", len(dims), c.order)
	}
	c.dims, c.dimsOff = dims, off
	return nil
}

// fields splits a trimmed line at its white space into toks[:0]: byte
// by byte while the line is ASCII, by bytes.Fields from the first
// control or non-ASCII byte on, since whether that is white space is
// for Unicode to say.
func fields(line []byte, toks [][]byte) [][]byte {
	toks = toks[:0]
	for i := 0; i < len(line); {
		j := i
		for j < len(line) && line[j]-'!' < utf8.RuneSelf-'!' {
			j++
		}
		if j < len(line) && !asciiSpace(line[j]) {
			return bytes.Fields(line)
		}
		toks = append(toks, line[i:j])
		for i = j; i < len(line) && asciiSpace(line[i]); i++ {
		}
	}
	return toks
}

// asciiSpace reports whether c is one of the six ASCII white-space
// bytes strings.Fields splits on.
func asciiSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

// lineAt returns the 1-based number of the line that starts at byte
// offset off. Lines are only ever counted to word an error.
func lineAt(data []byte, off int) int {
	return 1 + bytes.Count(data[:off], newline)
}

// tnsErr words an error about the line at byte offset off.
func tnsErr(data []byte, off int, format string, args ...any) error {
	return fmt.Errorf("tns line %d: "+format, append([]any{lineAt(data, off)}, args...)...)
}

// rowOffset returns the byte offset of the line holding the row-th
// nonzero of an image whose lines up to there are well formed, or
// len(data) if it holds fewer data lines.
func rowOffset(data []byte, row int) int {
	for rest := data; len(rest) > 0; {
		line, after, _ := bytes.Cut(rest, newline)
		if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '#' {
			if row--; row < 0 {
				return len(data) - len(rest)
			}
		}
		rest = after
	}
	return len(data)
}

// recoverFault, deferred as
//
//	defer recoverFault(&err, debug.SetPanicOnFault(true))
//
// by every goroutine that reads an image, turns a fault on the image —
// a page of a mapped file that was truncated under the parse — into
// *err instead of a crash, and puts the goroutine's old setting back.
// Any other panic goes on.
func recoverFault(err *error, old bool) {
	debug.SetPanicOnFault(old)
	if r := recover(); r != nil {
		f, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("tns: the input could not be read at address %#x (was the file truncated under the read?)", f.Addr())
	}
}

// ReadTNSFile reads a .tns tensor from the named file. A non-empty
// regular file is parsed straight from a read-only mapping (mapFile),
// which is gone when ReadTNSFile returns; anything else, and a file
// that does not map, is read into memory first.
func ReadTNSFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if data, unmap := mapFile(f); data != nil {
		defer unmap()
		return parseTNS(data, par.DefaultThreads(0))
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return parseTNS(data, par.DefaultThreads(0))
}

// WriteTNSFile writes the tensor to the named file.
func WriteTNSFile(path string, t *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTNS(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
