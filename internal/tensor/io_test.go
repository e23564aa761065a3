package tensor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestTNSRoundtrip(t *testing.T) {
	x := NewCOO([]int{4, 5, 6}, 3)
	x.Append([]int{0, 0, 0}, 1.5)
	x.Append([]int{3, 4, 5}, -2.25)
	x.Append([]int{1, 2, 3}, 1e-9)

	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 3 || got.NNZ() != 3 {
		t.Fatalf("roundtrip shape: order=%d nnz=%d", got.Order(), got.NNZ())
	}
	for m := range x.Dims {
		if got.Dims[m] != x.Dims[m] {
			t.Fatalf("dims differ: %v vs %v", got.Dims, x.Dims)
		}
	}
	for i := 0; i < x.NNZ(); i++ {
		for m := range x.Dims {
			if got.Idx[m][i] != x.Idx[m][i] {
				t.Fatalf("index mismatch at nz %d mode %d", i, m)
			}
		}
		if math.Abs(got.Val[i]-x.Val[i]) > 0 {
			t.Fatalf("value mismatch at nz %d: %v vs %v", i, got.Val[i], x.Val[i])
		}
	}
}

func TestReadTNSWithoutHeader(t *testing.T) {
	in := "1 1 1 2.0\n3 2 4 -1\n"
	x, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Dims[0] != 3 || x.Dims[1] != 2 || x.Dims[2] != 4 {
		t.Fatalf("inferred dims %v", x.Dims)
	}
	if x.NNZ() != 2 {
		t.Fatalf("nnz = %d", x.NNZ())
	}
}

func TestReadTNSCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\n1 1 3.5\n# another\n2 2 1\n"
	x, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 2 || x.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
}

func TestReadTNSErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"1 1\n",              // missing value? (order would be 1, coordinate "1" value "1" -- actually valid)
		"0 1 1 5\n",          // zero coordinate (1-based required)
		"1 1 abc\n",          // bad value
		"x 1 1 5\n",          // bad coordinate
		"1 1 1 5\n1 1 5\n",   // inconsistent field count
		"# dims: 2\n1 1 5\n", // header/data mode mismatch
	}
	for i, in := range cases {
		if i == 1 {
			continue // "1 1" parses as a 1-mode nonzero; skip
		}
		if _, err := ReadTNS(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): expected error", i, in)
		}
	}
}

func TestTNSFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tns")
	x := NewCOO([]int{2, 2}, 1)
	x.Append([]int{1, 0}, 42)
	if err := WriteTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTNSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 1 || got.Val[0] != 42 {
		t.Fatal("file roundtrip failed")
	}
	if _, err := ReadTNSFile(filepath.Join(dir, "missing.tns")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadTNSMalformed(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"short line", "1 2 3 1.0\n1 2\n", "line 2"},
		{"non-numeric coord", "1 x 1.5\n", "bad coordinate"},
		{"non-numeric value", "1 2 zz\n", "bad value"},
		{"inconsistent arity", "1 2 3 1.0\n1 2 3 4 1.0\n", "expected 4 fields"},
		{"zero coordinate", "0 1 1.0\n", "1-based"},
		{"out of range vs header", "# dims: 2 2\n3 1 1.0\n", "out of range"},
		{"late header out of range", "3 1 1.0\n# dims: 2 2\n", "out of range"},
		{"header arity mismatch", "# dims: 2 2 2\n1 1 1.0\n", "dims header"},
		{"duplicate header", "# dims: 2 2\n# dims: 2 2\n", "duplicate dims header"},
		{"negative mode size", "# dims: -1 2\n", "must be positive"},
		{"empty header", "# dims:\n", "empty dims header"},
		{"value only", "1.5\n", "at least one coordinate"},
		{"huge coordinate", "4294967296 1 1.0\n", "int32"},
		{"empty input", "", "empty input"},
	}
	for _, tc := range cases {
		_, err := ReadTNS(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: accepted %q", tc.name, tc.in)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q lacks %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestReadTNSLineNumbers(t *testing.T) {
	_, err := ReadTNS(strings.NewReader("# c\n\n1 1 1.0\n1 bad 1.0\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line-4 error, got %v", err)
	}
}

func TestTNSRoundTripFormats(t *testing.T) {
	// The on-disk format is storage-agnostic: a tensor written from COO
	// must reload and convert to CSF losslessly, and a CSF tensor
	// converted back to COO must serialize to an equivalent tensor.
	x := NewCOO([]int{5, 7, 3}, 0)
	x.Append([]int{4, 6, 2}, 1.25)
	x.Append([]int{0, 0, 0}, -3)
	x.Append([]int{4, 0, 2}, 0.5)
	x.Append([]int{2, 3, 1}, 7)
	x.SortDedup()

	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCSF(got, CSFOptions{})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTNS(&buf, c.ToCOO()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	da := DenseFromCOO(x)
	db := DenseFromCOO(back.SortDedup())
	for i := range da.Data {
		if da.Data[i] != db.Data[i] {
			t.Fatalf("CSF-mediated round trip changed entry %d", i)
		}
	}
	for m := range x.Dims {
		if back.Dims[m] != x.Dims[m] {
			t.Fatalf("dims changed: %v -> %v", x.Dims, back.Dims)
		}
	}
}

func TestReadTNSInt32Boundary(t *testing.T) {
	// The largest accepted coordinate must survive a write/read round
	// trip (its inferred mode size is re-accepted by the dims header
	// parser); one past it is rejected.
	x, err := ReadTNS(strings.NewReader("2147483647 1.0\n"))
	if err != nil {
		t.Fatalf("max int32 coordinate rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTNS(&buf); err != nil {
		t.Fatalf("boundary round trip rejected: %v", err)
	}
	if _, err := ReadTNS(strings.NewReader("2147483648 1.0\n")); err == nil {
		t.Fatal("coordinate 2^31 accepted")
	}
}

// readTNSOracle is the line-at-a-time reader ReadTNS replaced, kept as
// the reference the chunked parser is compared against: same tensors,
// same errors, same line numbers. It knows nothing of chunks or threads.
// (It accepts non-finite values and gives up on lines over 1 MiB; the
// comparisons below step around those two deliberate differences.)
func readTNSOracle(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var dims []int
	var rows [][]int
	var vals []float64
	var lineOf []int
	order := -1
	dimsLine := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest, ok := strings.CutPrefix(line, "# dims:")
			if !ok {
				continue
			}
			if dims != nil {
				return nil, fmt.Errorf("tns line %d: duplicate dims header (first on line %d)", lineNo, dimsLine)
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return nil, fmt.Errorf("tns line %d: empty dims header", lineNo)
			}
			for _, f := range fields {
				d, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("tns line %d: bad dims header entry %q: %v", lineNo, f, err)
				}
				if d <= 0 {
					return nil, fmt.Errorf("tns line %d: mode size %d must be positive", lineNo, d)
				}
				if d >= maxIndex {
					return nil, fmt.Errorf("tns line %d: mode size %d exceeds the int32 index range", lineNo, d)
				}
				dims = append(dims, d)
			}
			dimsLine = lineNo
			if order != -1 && len(dims) != order {
				return nil, fmt.Errorf("tns line %d: dims header has %d modes but data has %d", lineNo, len(dims), order)
			}
			continue
		}
		fields := strings.Fields(line)
		if order == -1 {
			order = len(fields) - 1
			if order < 1 {
				return nil, fmt.Errorf("tns line %d: need at least one coordinate and a value", lineNo)
			}
			if dims != nil && len(dims) != order {
				return nil, fmt.Errorf("tns line %d: %d coordinates but dims header (line %d) has %d modes",
					lineNo, order, dimsLine, len(dims))
			}
		}
		if len(fields) != order+1 {
			return nil, fmt.Errorf("tns line %d: expected %d fields, got %d", lineNo, order+1, len(fields))
		}
		coord := make([]int, order)
		for m := 0; m < order; m++ {
			c, err := strconv.Atoi(fields[m])
			if err != nil {
				return nil, fmt.Errorf("tns line %d: bad coordinate %q in mode %d: %v", lineNo, fields[m], m+1, err)
			}
			if c < 1 {
				return nil, fmt.Errorf("tns line %d: coordinates are 1-based, got %d in mode %d", lineNo, c, m+1)
			}
			if c >= maxIndex {
				return nil, fmt.Errorf("tns line %d: coordinate %d in mode %d exceeds the int32 index range", lineNo, c, m+1)
			}
			if dims != nil && c > dims[m] {
				return nil, fmt.Errorf("tns line %d: coordinate %d out of range [1,%d] in mode %d", lineNo, c, dims[m], m+1)
			}
			coord[m] = c - 1
		}
		v, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("tns line %d: bad value %q: %v", lineNo, fields[order], err)
		}
		rows = append(rows, coord)
		vals = append(vals, v)
		lineOf = append(lineOf, lineNo)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tns line %d: %w", lineNo+1, err)
	}
	if order == -1 && dims == nil {
		return nil, fmt.Errorf("tns: empty input")
	}
	if dims == nil {
		dims = make([]int, order)
		for _, c := range rows {
			for m, x := range c {
				if x+1 > dims[m] {
					dims[m] = x + 1
				}
			}
		}
	}
	t := NewCOO(dims, len(vals))
	for i, c := range rows {
		if err := t.AppendChecked(c, vals[i]); err != nil {
			return nil, fmt.Errorf("tns line %d: %w", lineOf[i], err)
		}
	}
	return t, nil
}

// writeTNSFmt is the fmt-based writer WriteTNS replaced; the benchmark's
// inputs were written by it, so WriteTNS must match it byte for byte.
func writeTNSFmt(w io.Writer, t *COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# dims:")
	for _, d := range t.Dims {
		fmt.Fprintf(bw, " %d", d)
	}
	fmt.Fprintln(bw)
	for i := 0; i < t.NNZ(); i++ {
		for m := range t.Dims {
			fmt.Fprintf(bw, "%d ", t.Idx[m][i]+1)
		}
		if _, err := fmt.Fprintf(bw, "%.17g\n", t.Val[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sameCOO reports the first difference between two tensors, values
// compared bit for bit.
func sameCOO(a, b *COO) error {
	if fmt.Sprint(a.Dims) != fmt.Sprint(b.Dims) {
		return fmt.Errorf("dims %v vs %v", a.Dims, b.Dims)
	}
	if a.NNZ() != b.NNZ() {
		return fmt.Errorf("nnz %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range a.Val {
		for m := range a.Dims {
			if a.Idx[m][i] != b.Idx[m][i] {
				return fmt.Errorf("nonzero %d mode %d: index %d vs %d", i, m, a.Idx[m][i], b.Idx[m][i])
			}
		}
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return fmt.Errorf("nonzero %d: value %v vs %v", i, a.Val[i], b.Val[i])
		}
	}
	return nil
}

// oracleResult is what the oracle made of an input.
type oracleResult struct {
	x   *COO
	err error
}

func oracleOf(data []byte) oracleResult {
	x, err := readTNSOracle(bytes.NewReader(data))
	return oracleResult{x, err}
}

// check parses data with the chunked reader on the given thread count
// and reports any disagreement with the oracle: acceptance, the tensor,
// or the error text, line number included. A rejection for a non-finite
// value is the reader's one deliberate difference.
func (want oracleResult) check(data []byte, threads int) error {
	got, err := parseTNS(data, threads)
	switch {
	case err != nil && strings.Contains(err.Error(), "non-finite value"):
		return nil
	case want.err != nil && err != nil:
		if want.err.Error() != err.Error() {
			return fmt.Errorf("threads=%d: error %q, oracle %q", threads, err, want.err)
		}
		return nil
	case want.err != nil || err != nil:
		return fmt.Errorf("threads=%d: error %v, oracle %v", threads, err, want.err)
	}
	if err := sameCOO(got, want.x); err != nil {
		return fmt.Errorf("threads=%d: %v", threads, err)
	}
	return nil
}

// fileAgrees writes data to the named file and reports any disagreement
// between ReadTNSFile on it and ReadTNS on data: the tensor, or the
// error text, line number included.
func fileAgrees(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o600); err != nil {
		return err
	}
	want, wantErr := ReadTNS(bytes.NewReader(data))
	got, err := ReadTNSFile(path)
	if wantErr != nil || err != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			return fmt.Errorf("file: error %v, ReadTNS %v", err, wantErr)
		}
		return nil
	}
	if err := sameCOO(got, want); err != nil {
		return fmt.Errorf("file: %v", err)
	}
	return nil
}

// withChunkBytes runs f with the reader cutting chunks of at least n bytes.
func withChunkBytes(n int, f func()) {
	defer func(old int) { tnsChunkBytes = old }(tnsChunkBytes)
	tnsChunkBytes = n
	f()
}

// hostileTNS builds a .tns image of the given order out of well-formed
// lines and, with probability bad per line, the malformations the reader
// is specified against; the header comes first, late, twice or never.
func hostileTNS(rng *rand.Rand, order int, bad float64) []byte {
	seps := []string{" ", "\t", "  ", " \t ", "\u00a0", "\v"}
	ends := []string{"\n", "\n", "\r\n", " \n", "\t\r\n"}
	values := []string{"1.5", "-2", "1e-9", "0.42073298489919763", "+7", ".5", "0x1p-2", "1e300", "-0"}
	badValues := []string{"zz", "1e999", "NaN", "Inf", "-inf", "1.5.2", "--1"}
	badCoords := []string{"0", "-3", "x", "1.5", "2147483648", "99999999999999999999", "4294967296", "٣"}
	dims := make([]int, order)
	for m := range dims {
		dims[m] = 1 + rng.Intn(40)
	}
	var sb strings.Builder
	header := func() {
		sb.WriteString("# dims:")
		for _, d := range dims {
			fmt.Fprintf(&sb, " %d", d)
		}
		sb.WriteString(ends[rng.Intn(len(ends))])
	}
	lines := rng.Intn(30)
	headerAt := rng.Intn(lines+2) - 1 // -1: no header
	if rng.Intn(3) == 0 {
		headerAt = 0
	}
	for l := 0; l <= lines; l++ {
		if l == headerAt || (headerAt >= 0 && rng.Float64() < bad/8) {
			header()
		}
		switch r := rng.Float64(); {
		case r < 0.08:
			sb.WriteString(ends[rng.Intn(len(ends))])
			continue
		case r < 0.16:
			sb.WriteString([]string{"# a comment", "  #dims: 1 2", "#", "# dims : 3"}[rng.Intn(4)] + "\n")
			continue
		case r < 0.16+bad/4:
			sb.WriteString([]string{"# dims:", "# dims: 0 1", "# dims: a", "# dims: 2147483648"}[rng.Intn(4)] + "\n")
			continue
		}
		fields := order
		if rng.Float64() < bad/3 {
			fields = rng.Intn(order + 3)
		}
		if rng.Intn(4) == 0 {
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		for m := 0; m < fields; m++ {
			switch r := rng.Float64(); {
			case r < bad/3:
				sb.WriteString(badCoords[rng.Intn(len(badCoords))])
			case r < 0.1:
				fmt.Fprintf(&sb, "+%03d", 1+rng.Intn(dims[m%order]))
			case r < 0.1+bad/3:
				fmt.Fprint(&sb, dims[m%order]+1+rng.Intn(3))
			default:
				fmt.Fprint(&sb, 1+rng.Intn(dims[m%order]))
			}
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		if rng.Float64() < bad/3 {
			sb.WriteString(badValues[rng.Intn(len(badValues))])
		} else {
			sb.WriteString(values[rng.Intn(len(values))])
		}
		if l < lines || rng.Intn(2) == 0 {
			sb.WriteString(ends[rng.Intn(len(ends))])
		}
	}
	return []byte(sb.String())
}

// Property: on generated inputs, clean and hostile, orders 1-6, the
// chunked reader equals the oracle — tensor, error text, line number —
// for every thread count and with cuts far smaller than a line, and
// ReadTNSFile on the input written to a file equals ReadTNS.
func TestReadTNSMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	path := filepath.Join(t.TempDir(), "x.tns")
	rejected := 0
	for trial := 0; trial < 1500; trial++ {
		data := hostileTNS(rng, 1+trial%6, []float64{0, 0.05, 0.3}[trial%3])
		want := oracleOf(data)
		if want.err != nil {
			rejected++
		}
		for _, chunk := range []int{1 << 16, 1 + rng.Intn(40)} {
			withChunkBytes(chunk, func() {
				for _, threads := range []int{1, 2, 3, 8} {
					if err := want.check(data, threads); err != nil {
						t.Fatalf("trial %d, chunk bytes %d: %v\ninput: %q", trial, chunk, err, data)
					}
				}
				if err := fileAgrees(path, data); err != nil {
					t.Fatalf("trial %d, chunk bytes %d: %v\ninput: %q", trial, chunk, err, data)
				}
			})
		}
	}
	if rejected < 300 || rejected > 1200 {
		t.Fatalf("generator is lopsided: %d of 1500 inputs rejected", rejected)
	}
}

// A cut may fall on any byte — inside a number, a comment, the header, a
// CRLF — and must change nothing, for a file that parses and for files
// that fail early, late and only at the deferred range check.
func TestReadTNSCutAtEveryByte(t *testing.T) {
	good := "# produced by a test\n3 1 2 1.25\n\n1 2 1 -0.5\r\n# dims: 3 2 2\n  2 2 2\t1e-3\n#tail\n1 1 1 4"
	for name, data := range map[string]string{
		"good":             good,
		"bad value":        good + "\n1 1 1 x\n1 1 1 1\n",
		"range after":      good + "\n4 1 1 1\n",
		"range before":     strings.Replace(good, "3 1 2", "3 1 3", 1),
		"duplicate header": good + "\n# dims: 3 2 2\n",
		"arity":            strings.Replace(good, "1 2 1 -0.5", "1 2 -0.5", 1),
		"header arity":     strings.Replace(good, "# dims: 3 2 2", "# dims: 3 2", 1),
	} {
		want := oracleOf([]byte(data))
		for size := 1; size <= len(data)+1; size++ {
			withChunkBytes(size, func() {
				if err := want.check([]byte(data), len(data)); err != nil {
					t.Fatalf("%s, chunks of %d bytes: %v", name, size, err)
				}
			})
		}
	}
}

// The thread count decides how many chunks a real-sized image is cut
// into and must not show in the result.
func TestReadTNSThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewCOO([]int{5000, 300, 70, 9}, 0)
	for i := 0; i < 30000; i++ {
		x.Append([]int{rng.Intn(5000), rng.Intn(300), rng.Intn(70), rng.Intn(9)}, rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 8*tnsChunkBytes {
		t.Fatalf("image of %d bytes does not fill 8 chunks", buf.Len())
	}
	want := oracleOf(buf.Bytes())
	for _, threads := range []int{1, 2, 3, 8} {
		got, err := parseTNS(buf.Bytes(), threads)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCOO(got, x); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if err := want.check(buf.Bytes(), threads); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadTNSNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-inf", "Infinity"} {
		_, err := ReadTNS(strings.NewReader("# dims: 2 2\n1 1 1.0\n2 2 " + v + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("value %s: want a line-3 non-finite error, got %v", v, err)
		}
	}
	// Overflow is strconv's error, as it always was.
	if _, err := ReadTNS(strings.NewReader("1 1 1e999\n")); err == nil || !strings.Contains(err.Error(), "bad value") {
		t.Fatalf("1e999: %v", err)
	}
}

func TestReadTNSLongLines(t *testing.T) {
	long := strings.Repeat("x", 3<<20)
	in := "# " + long + "\n1 2 " + strings.Repeat(" ", 2<<20) + "3.5\n# dims: 4 4 " + long + "\n"
	x, err := ReadTNS(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3: bad dims header entry") {
		t.Fatalf("want the header's junk entry rejected on line 3, got %v", err)
	}
	x, err = ReadTNS(strings.NewReader(in[:len(in)-len(long)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != 1 || x.Val[0] != 3.5 || x.Dims[0] != 4 {
		t.Fatalf("got %v", x)
	}
}

// allocsImage is a 50k-nonzero order-3 tensor and its .tns image.
func allocsImage(t *testing.T) (*COO, []byte) {
	rng := rand.New(rand.NewSource(1))
	x := NewCOO([]int{4000, 3000, 50}, 0)
	for i := 0; i < 50000; i++ {
		x.Append([]int{rng.Intn(4000), rng.Intn(3000), rng.Intn(50)}, rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	return x, buf.Bytes()
}

// The parser's garbage must not grow with the nonzero count: the
// result's columns, once, and a few slices per chunk.
func TestReadTNSAllocsBounded(t *testing.T) {
	x, img := allocsImage(t)
	const threads = 4
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := parseTNS(img, threads); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(20 + threads*5); allocs > limit {
		t.Fatalf("%v allocations for %d nonzeros in %d chunks, want at most %v", allocs, x.NNZ(), threads, limit)
	}
}

// The chunks parse straight into the result's columns, so a parse
// allocates those bytes once and little else. Columns built per chunk
// and concatenated afterwards would take twice.
func TestReadTNSAllocatesColumnsOnce(t *testing.T) {
	x, img := allocsImage(t)
	const threads, runs = 4, 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := parseTNS(img, threads); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perParse := float64(after.TotalAlloc-before.TotalAlloc) / runs
	columns := float64(x.NNZ() * (4*x.Order() + 8))
	if perParse > 1.15*columns {
		t.Fatalf("a parse allocates %.0f bytes for %.0f bytes of columns (%.2fx), want at most 1.15x", perParse, columns, perParse/columns)
	}
}

// The shapes the fast line path takes and the near misses it must leave
// to the general path, against the line-at-a-time oracle: CRLF and
// trailing tabs, signed and bare-point values, 17-digit values and
// 17-digit exponents, coordinates of 9 and 10 digits, values at the
// edges of the fast parse's exponent window, and what only strconv reads.
func TestReadTNSFastPathShapes(t *testing.T) {
	coords := []string{"3", "007", "999999999", "1000000000", "2147483648", "+2", "0", "-1", "1.0"}
	seps := []string{"\t", "  \t ", "\v", "\u00a0", " \r ", "\f"}
	values := []string{"+.5e-3", "-.5", "5.", ".5", "-0", "0.25", "3", "-7", "00012.5000",
		"1.2345678901234567e-05", "9.9999999999999999e+64", "1e-64", "1e-65", "1e65", "1e00000000000000017",
		"-2.5E-00000000000000003", "9007199254740993", "12345678901234567890", "0x1p-2", "1_0",
		"1e", "1e+", "Inf", "nan", "1.5.2", "1e999"}
	ends := []string{"\r\n", "\t\n", " \t\r\n", "\r\r\n", "\t", "", "\v\n", " # note\n"}
	rng := rand.New(rand.NewSource(30))
	pick := func(odd []string, common string) string {
		if rng.Intn(10) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return common
	}
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		order := 1 + trial%4
		var sb strings.Builder
		if rng.Intn(2) == 0 {
			sb.WriteString("# dims:" + strings.Repeat(" 1000000000", order) + "\n")
		}
		lines := 1 + rng.Intn(8)
		for l := 0; l < lines; l++ {
			sb.WriteString(pick([]string{" ", "\t", " \t"}, ""))
			for m := 0; m < order; m++ {
				sb.WriteString(pick(coords, strconv.Itoa(1+rng.Intn(99))))
				sb.WriteString(pick(seps, " "))
			}
			sb.WriteString(pick(values, strconv.FormatFloat(rng.NormFloat64(), 'g', 17, 64)))
			end := pick(ends, "\n")
			if l < lines-1 && !strings.Contains(end, "\n") {
				end += "\n"
			}
			sb.WriteString(end)
		}
		data := []byte(sb.String())
		want := oracleOf(data)
		if want.err == nil {
			accepted++
		}
		for _, chunk := range []int{1 << 16, 1 + rng.Intn(30)} {
			withChunkBytes(chunk, func() {
				for _, threads := range []int{1, 2, 3, 8} {
					if err := want.check(data, threads); err != nil {
						t.Fatalf("trial %d, chunk bytes %d: %v\ninput: %q", trial, chunk, err, data)
					}
				}
			})
		}
	}
	if accepted < 400 || accepted > 1600 {
		t.Fatalf("generator is lopsided: %d of 2000 inputs accepted", accepted)
	}
}

// WriteTNS builds its lines with strconv; the bytes must be the ones fmt
// produced, for every shape of value.
func TestWriteTNSMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := NewCOO([]int{2147483647, 12, 1, 400}, 0)
	special := []float64{0, math.Copysign(0, -1), 1, -1, 1e21, 1e-7, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3}
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		if i < len(special) {
			v = special[i]
		}
		x.Append([]int{rng.Intn(2147483647), rng.Intn(12), 0, rng.Intn(400)}, v)
	}
	var got, want bytes.Buffer
	if err := WriteTNS(&got, x); err != nil {
		t.Fatal(err)
	}
	if err := writeTNSFmt(&want, x); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteTNS output differs from the fmt writer's")
	}
	if got.Len() < 1<<17 {
		t.Fatalf("only %d bytes written", got.Len())
	}
}
