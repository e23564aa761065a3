package tensor

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// checkParseValue holds parseValue to strconv.ParseFloat on s: when it
// takes all of s, strconv must accept s and give the same bits. Falling
// back is always allowed. It reports whether the fast parse took s.
func checkParseValue(s string) (bool, error) {
	v, n, ok := parseValue([]byte(s))
	if !ok || n != len(s) {
		return false, nil
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return true, fmt.Errorf("parseValue(%q) = %v, strconv rejects it: %v", s, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		return true, fmt.Errorf("parseValue(%q) = %v (%#016x), strconv %v (%#016x)",
			s, v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true, nil
}

func TestParseValueMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "-0", "+0", "0.0", "-0.0", "-0e5", "0e-999", "000", "-.0", "0.",
		"1", "-1", "+7", "3", "42", "65535", "1234567890",
		".5", "5.", "-.5", "+.5e-3", "0.25", "1.5", "-2.25", "0.1", "0.3",
		"1e", "1e+", "1e-", "e5", ".", "-", "+", "", "..5", "1..5", "1.5.2", "--1", "+-1",
		"0x1p-2", "0X1P+3", "0x10", "1_000", "1_0.5", "1e1_0", "0b1", "1f", "1d",
		"inf", "Inf", "+inf", "-Inf", "INF", "infinity", "+Infinity", "-infinity", "iNfInItY",
		"nan", "NaN", "-nan", "+NaN", "NAN",
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
		"18014398509481985", "18014398509481987",
		"9007199254740993.0000000000", "4503599627370496.5", "4503599627370497.5",
		"1234567890123456789", "12345678901234567890", "1234567890123456789e-10",
		"9999999999999999999", "99999999999999999999", "18446744073709551615", "18446744073709551616",
		"0.1234567890123456789", "0.12345678901234567890", "00000000000000000000001.5",
		"0.000000000000000000000000000000000000000001", "1.00000000000000000000",
		"2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324", "1e-400",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e309",
		"2.4703282292062328e-324", "2.2250738585072011e-308",
		"1e-64", "1e-65", "1e-63", "1e64", "1e65", "1e63",
		"9999999999999999999e-64", "9999999999999999999e-65", "9999999999999999999e64", "9999999999999999999e65",
		"1e00000000000000017", "1e-00000000000000017", "5e+0000000000000000064", "5e99999999999999999",
		"0.42073298489919763", "2.0849766792826072", "8.7031609326434953", "1.3056998637457990",
		"1.2345678901234567e-05", "-9.8765432109876543e+21", "7.0000000000000000e-64",
		"1 ", "1\t", "1\n", "1,5", "١",
	}
	for _, s := range cases {
		if _, err := checkParseValue(s); err != nil {
			t.Error(err)
		}
	}

	// Halfway points between neighbouring floats at magnitudes across the
	// window, rounded to 18-41 digits: the cases whose rounding the
	// algorithm may refuse to decide.
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 20000; i++ {
		a := math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(1023-260+rng.Intn(520))<<52)
		mid := new(big.Float).SetPrec(2000).Add(big.NewFloat(a), big.NewFloat(math.Nextafter(a, math.Inf(1))))
		mid.Quo(mid, big.NewFloat(2))
		for _, prec := range []int{17, 18, 19, 20, 40} {
			if _, err := checkParseValue(mid.Text('e', prec)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Random float64 bit patterns, half of them with a binary exponent
	// near the window's, printed every way a writer prints them.
	accepted, tried := 0, 0
	for i := 0; i < 1000000; i++ {
		b := rng.Uint64()
		if i%2 == 1 {
			b = b&^(0x7FF<<52) | uint64(1023-260+rng.Intn(520))<<52
		}
		f := math.Float64frombits(b)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, s := range []string{
			strconv.FormatFloat(f, 'g', -1, 64),
			strconv.FormatFloat(f, 'g', 17, 64),
			strconv.FormatFloat(f, 'e', -1, 64),
			strconv.FormatFloat(f, 'f', -1, 64),
		} {
			took, err := checkParseValue(s)
			if err != nil {
				t.Fatal(err)
			}
			if took {
				accepted++
			}
			tried++
		}
	}

	// Decimal strings of 1-20 random digits at every exponent of the
	// window and one past it.
	for i := 0; i < 200000; i++ {
		digits := strconv.FormatUint(rng.Uint64(), 10)
		digits = digits[:1+rng.Intn(len(digits))]
		e := pow10Min - 1 - len(digits) + rng.Intn(pow10Max-pow10Min+3+len(digits))
		for _, s := range []string{digits + "e" + strconv.Itoa(e), "-" + digits[:1] + "." + digits[1:] + "e" + strconv.Itoa(e)} {
			if _, err := checkParseValue(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("fast parse took %d of %d random spellings", accepted, tried)
}

// The table is the truncated 128-bit mantissa of every power of ten in
// the window, rebuilt here from exact integers.
func TestPow10Table(t *testing.T) {
	one := big.NewInt(1)
	lo, hi := new(big.Int).Lsh(one, 127), new(big.Int).Lsh(one, 128)
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	for e := pow10Min; e <= pow10Max; e++ {
		num, den := big.NewInt(1), big.NewInt(1)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			num = pow
		} else {
			den = pow
		}
		q := new(big.Int)
		for {
			q.Quo(num, den)
			if q.Cmp(lo) < 0 {
				num.Lsh(num, 1)
			} else if q.Cmp(hi) >= 0 {
				den.Lsh(den, 1)
			} else {
				break
			}
		}
		want := [2]uint64{new(big.Int).Rsh(q, 64).Uint64(), new(big.Int).And(q, mask).Uint64()}
		if got := pow10[e-pow10Min]; got != want {
			t.Errorf("1e%d: table %#016x, want %#016x", e, got, want)
		}
	}
}

// FuzzParseValue holds the fast value parse to strconv.ParseFloat on
// arbitrary bytes: same bits for whatever prefix it takes.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"1.5", "-0", "+.5e-3", "2.0849766792826072", "9007199254740993", "1e-64",
		"1e65", "0x1p-2", "1_0", "Inf", "nan", "12345678901234567890", "5.", ".5", "1e", "0.25"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// What it takes, all of s or a prefix, must be strconv's reading.
		if _, n, ok := parseValue([]byte(s)); ok {
			if _, err := checkParseValue(s[:n]); err != nil {
				t.Fatal(err)
			}
		}
	})
}
