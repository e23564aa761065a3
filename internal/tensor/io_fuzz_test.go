package tensor

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadTNS drives the .tns parser with arbitrary input: it must
// never panic, must agree with the line-at-a-time oracle — acceptance,
// tensor, error text and line number; non-finite values excepted — both
// in one chunk and cut every few bytes, ReadTNSFile on the input written
// to a file must equal ReadTNS, and anything it accepts must survive a
// write/read round trip with identical shape and nonzeros.
func FuzzReadTNS(f *testing.F) {
	defer func(old int) { tnsChunkBytes = old }(tnsChunkBytes)
	tnsChunkBytes = 5
	path := filepath.Join(f.TempDir(), "x.tns")
	f.Add("# dims: 3 4\n1 1 1.5\n3 4 -2\n")
	f.Add("1 2 3 4.25\n")
	f.Add("# dims: 2\n")
	f.Add("# comment\n\n2 2 1e300\n")
	f.Add("1 1 NaN\n")
	f.Add("a b c\n")
	f.Add("# dims: -1\n1 1 1\n")
	f.Add("1 0 1\n")
	f.Add("9999999999 1 1\n")
	f.Add("1 1 1\n1 1\n")
	f.Add("3 1 1.0\n1\u00a02\t-1\r\n# dims: 2 2\n")
	f.Add("+1 1 0x1p-2\n# dims: 2 2\n\n1 1 Inf")
	f.Fuzz(func(t *testing.T, data string) {
		want := oracleOf([]byte(data))
		for _, threads := range []int{1, 4} {
			if err := want.check([]byte(data), threads); err != nil {
				t.Fatalf("%v\ninput: %q", err, data)
			}
		}
		if err := fileAgrees(path, []byte(data)); err != nil {
			t.Fatalf("%v\ninput: %q", err, data)
		}
		x, err := ReadTNS(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTNS(&buf, x); err != nil {
			t.Fatalf("accepted tensor failed to write: %v", err)
		}
		y, err := ReadTNS(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q", err, data)
		}
		if y.Order() != x.Order() || y.NNZ() != x.NNZ() {
			t.Fatalf("round trip changed shape: %v -> %v", x, y)
		}
		for m := range x.Dims {
			if y.Dims[m] != x.Dims[m] {
				t.Fatalf("round trip changed dims: %v -> %v", x.Dims, y.Dims)
			}
			for i := 0; i < x.NNZ(); i++ {
				if y.Idx[m][i] != x.Idx[m][i] {
					t.Fatalf("round trip moved nonzero %d", i)
				}
			}
		}
	})
}
