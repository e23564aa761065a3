package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quick options keep the harness tests fast: tiny scale, 1 sweep, few
// ranks.
func quickOpts() Options {
	return Options{Scale: 0.02, Ps: []int{1, 2}, P: 4, Iters: 1, Threads: []int{1, 2}, Seed: 1}
}

func TestTableI(t *testing.T) {
	var buf bytes.Buffer
	rows, err := TableI(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d dataset rows", len(rows))
	}
	for _, r := range rows {
		if r.NNZ == 0 {
			t.Fatalf("dataset %s empty", r.Name)
		}
	}
	if !strings.Contains(buf.String(), "Netflix") {
		t.Fatal("table output missing dataset name")
	}
}

func TestTableII(t *testing.T) {
	var buf bytes.Buffer
	res, err := TableII(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 4 || len(res.Configs) != 4 {
		t.Fatalf("result shape: %d datasets, %d configs", len(res.Datasets), len(res.Configs))
	}
	for _, ds := range res.Datasets {
		for _, p := range res.Ps {
			for _, cfg := range res.Configs {
				cell := res.Cells[ds][p][cfg]
				if cell.Model <= 0 {
					t.Fatalf("%s P=%d %s: nonpositive model time", ds, p, cfg)
				}
			}
		}
	}
	// Model time must shrink with P (strong scaling shape) for fine-hp.
	for _, ds := range res.Datasets {
		m1 := res.Cells[ds][1]["fine-hp"].Model
		m2 := res.Cells[ds][2]["fine-hp"].Model
		if m2 >= m1 {
			t.Fatalf("%s: fine-hp model time did not improve from P=1 (%v) to P=2 (%v)", ds, m1, m2)
		}
	}
}

func TestTableIII(t *testing.T) {
	var buf bytes.Buffer
	res, err := TableIII(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d configs", len(res))
	}
	rows := res["fine-hp"]
	if len(rows) != 4 {
		t.Fatalf("flickr should have 4 modes, got %d", len(rows))
	}
	// Fine-grain TTMc work must be perfectly balanced (max == avg up to
	// rounding): that is the headline property of the fine-grain model.
	for _, r := range rows {
		if float64(r.WTTMcMax) > 1.7*r.WTTMcAvg {
			t.Fatalf("fine-hp mode %d: TTMc max %d far above avg %.0f", r.Mode, r.WTTMcMax, r.WTTMcAvg)
		}
	}
}

func TestTableIV(t *testing.T) {
	var buf bytes.Buffer
	rows, err := TableIV(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := r.TTMcPct + r.TRSVDPct + r.CorePct
		if sum < 99.0 || sum > 101.0 {
			t.Fatalf("%s: percentages sum to %v", r.Dataset, sum)
		}
	}
}

func TestTableV(t *testing.T) {
	var buf bytes.Buffer
	res, err := TableV(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d datasets", len(res))
	}
	for name, cells := range res {
		if len(cells) != 2 {
			t.Fatalf("%s: %d cells", name, len(cells))
		}
		if cells[0].SecPerIt <= 0 {
			t.Fatalf("%s: nonpositive time", name)
		}
	}
}

// The comm-volume table's claim: for every dataset, rank count and
// placement method, one sweep's realized expand+fold payload equals the
// cut model's byte prediction exactly.
func TestCommVolume(t *testing.T) {
	var buf bytes.Buffer
	rows, err := CommVolume(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d datasets", len(rows))
	}
	for name, rs := range rows {
		if len(rs) != len(commPs)*len(commMethods) {
			t.Fatalf("%s: %d rows", name, len(rs))
		}
		for _, r := range rs {
			if r.Realized() != r.ModelBytes {
				t.Fatalf("%s %s p=%d: realized %d B != cut model %d B", name, r.Method, r.P, r.Realized(), r.ModelBytes)
			}
		}
	}
	if !strings.Contains(buf.String(), "Comm volume") {
		t.Fatal("table output missing title")
	}
}

func TestMET(t *testing.T) {
	var buf bytes.Buffer
	res, err := MET(quickOpts(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.METSec <= 0 || res.OursSec <= 0 {
		t.Fatal("nonpositive timings")
	}
	if !strings.Contains(buf.String(), "nonzero-based") {
		t.Fatal("missing output row")
	}
}

func TestRenderAlignment(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Render(&buf)
	// Title, header, separator, two rows.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines", len(lines))
	}
	if len(lines[3]) != len(lines[4]) {
		t.Fatal("rows not aligned")
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		5:          "5",
		1500:       "1.5K",
		543_000:    "543K",
		1_500_000:  "1.5M",
		20_000_000: "20M",
	}
	for in, want := range cases {
		if got := humanCount(in); got != want {
			t.Fatalf("humanCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestChaos(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts()
	o.Iters = 5 // the kill fires at sweep 3; leave room to recover
	rep, err := Chaos(o, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(rep.Trials) != chaosTrials {
		t.Fatalf("%d trials", len(rep.Trials))
	}
	for _, trial := range rep.Trials {
		if !trial.Deterministic {
			t.Fatalf("seed %d outcome not reproducible", trial.Seed)
		}
	}
	if !rep.Recovered {
		t.Fatal("kill-and-recover did not complete")
	}
	if !strings.Contains(buf.String(), "bitwise identical") {
		t.Fatal("report missing recovery line")
	}
}
