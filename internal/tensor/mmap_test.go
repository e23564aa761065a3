//go:build unix

package tensor

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
)

// mappedTNS writes img to path and maps it as ReadTNSFile does.
func mappedTNS(t *testing.T, path string, img []byte) ([]byte, func()) {
	t.Helper()
	if err := os.WriteFile(path, img, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, unmap := mapFile(f)
	if data == nil {
		t.Fatal("a non-empty regular file did not map")
	}
	return data, unmap
}

// A file truncated after it was mapped loses its pages under the parse,
// and every read of them faults: in the search for the chunks' cuts, in
// the line count and in a chunk's parse, which the serial re-read runs
// too. Each fault must come back as an error, not kill the process, and
// leave the goroutine's fault setting as it found it.
func TestReadTNSFileTruncatedUnderTheParse(t *testing.T) {
	_, img := allocsImage(t)
	path := filepath.Join(t.TempDir(), "x.tns")
	for _, keep := range []int{0, 100, 3*len(img)/4 + 8192} {
		for _, threads := range []int{1, 4} {
			data, unmap := mappedTNS(t, path, img)
			if err := os.Truncate(path, int64(keep)); err != nil {
				t.Fatal(err)
			}
			_, err := parseTNS(data, threads)
			unmap()
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("kept %d bytes, threads=%d: want a truncation error, got %v", keep, threads, err)
			}
		}
	}

	data, unmap := mappedTNS(t, path, img)
	defer unmap()
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	lines := 1 + strings.Count(string(img), "\n")
	idx := [][]int32{make([]int32, lines), make([]int32, lines), make([]int32, lines)}
	var c tnsChunk
	c.parse(data, 0, len(data), idx, make([]float64, lines), 0)
	if c.err == nil || !strings.Contains(c.err.Error(), "truncated") {
		t.Fatalf("a chunk's parse past the truncation: want a truncation error, got %v (%d rows)", c.err, c.n)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("the parse left the goroutine panicking on faults")
	}
}

// What is not a non-empty regular file is read into memory, with the
// results of a plain read: a FIFO's tensor, an empty file's error and a
// directory's read error.
func TestReadTNSFileFallbacks(t *testing.T) {
	dir := t.TempDir()
	const in = "# dims: 3 4\n1 1 1.5\n3 4 -2\n"
	want, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "fifo.tns")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() { wrote <- os.WriteFile(fifo, []byte(in), 0) }()
	got, err := ReadTNSFile(fifo)
	if err != nil {
		t.Fatalf("fifo: %v", err)
	}
	if err := sameCOO(got, want); err != nil {
		t.Fatalf("fifo: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	empty := filepath.Join(dir, "empty.tns")
	if err := os.WriteFile(empty, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTNSFile(empty); fmt.Sprint(err) != "tns: empty input" {
		t.Fatalf("empty file: want tns: empty input, got %v", err)
	}
	_, wantErr := os.ReadFile(dir)
	if _, err := ReadTNSFile(dir); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("directory: want %v, got %v", wantErr, err)
	}
	for _, p := range []string{empty, dir} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if data, unmap := mapFile(f); data != nil {
			unmap()
			t.Errorf("%s mapped", p)
		}
		f.Close()
	}
}

// A file of exactly one page whose last value ends at the mapping's end,
// with no newline after it, through the fast line path and through
// strconv, in one chunk and cut small.
func TestReadTNSFilePageWithoutFinalNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "page.tns")
	for _, last := range []string{"2 3 0.25", "2 3 0x1p-2"} {
		var sb strings.Builder
		sb.WriteString("# dims: 4 4\n")
		for sb.Len() < 4000 {
			sb.WriteString("1 2 1.5\n")
		}
		sb.WriteString("#" + strings.Repeat("x", 4096-sb.Len()-len(last)-2) + "\n" + last)
		data := []byte(sb.String())
		if len(data) != 4096 {
			t.Fatalf("image of %d bytes", len(data))
		}
		for _, chunk := range []int{1 << 16, 7} {
			withChunkBytes(chunk, func() {
				if err := fileAgrees(path, data); err != nil {
					t.Fatalf("%q, chunk bytes %d: %v", last, chunk, err)
				}
			})
		}
		x, err := ReadTNSFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := x.NNZ() - 1; x.Idx[0][i] != 1 || x.Idx[1][i] != 2 || x.Val[i] != 0.25 {
			t.Fatalf("%q: last nonzero (%d %d) %v", last, x.Idx[0][i], x.Idx[1][i], x.Val[i])
		}
	}
}

// ReadTNSFile parses the mapping in place, so a read allocates what a
// parse of an image in memory does (TestReadTNSAllocatesColumnsOnce):
// the columns once and little else. The file's image never reaches the
// heap.
func TestReadTNSFileAllocatesColumnsOnce(t *testing.T) {
	x, img := allocsImage(t)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := os.WriteFile(path, img, 0o600); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadTNSFile(path); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	columns := float64(x.NNZ() * (4*x.Order() + 8))
	if perRead > 1.15*columns {
		t.Fatalf("a read allocates %.0f bytes for %.0f bytes of columns (%.2fx), want at most 1.15x", perRead, columns, perRead/columns)
	}
}
