package tensor

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The reader's fast value parse: the exact Eisel–Lemire conversion
// strconv.ParseFloat uses for up to 19 significant digits (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021), over a
// powers-of-ten table cut to the window .tns values live in. What it
// cannot convert for certain it hands back to strconv.

// parseValue reads the decimal number at the start of s and returns its
// value and length. It takes [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? with at
// most 19 significant digits and, unless they are all zero, a decimal
// exponent inside pow10's window. Anything else — hex, underscores, inf
// and nan, longer or larger numbers, a product whose rounding the
// algorithm cannot decide — gives ok = false. When ok, v is what
// strconv.ParseFloat(string(s[:n]), 64) returns, bit for bit.
func parseValue(s []byte) (v float64, n int, ok bool) {
	i := 0
	neg := len(s) > 0 && s[0] == '-'
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		i++
	}
	lead := i
	for i < len(s) && s[i] == '0' { // leading zeros are not significant
		i++
	}
	sig := i
	var man uint64
	man, i = digitRun(s, i, 0)
	nd, saw := i-sig, i > lead
	exp := 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for nd == 0 && i < len(s) && s[i] == '0' {
			i++
		}
		sig = i
		man, i = digitRun(s, i, man)
		nd += i - sig
		exp = frac - i
		saw = saw || i > frac
	}
	if !saw || nd > 19 {
		return 0, 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := i < len(s) && s[i] == '-'
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		first, e := i, 0
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if e < 10000 { // strconv's cap: the exponents the cap bends all fall outside the window
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == first {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if man != 0 { // else ±0, whatever the exponent: the sign goes on below
		if v, ok = eiselLemire(man, exp); !ok {
			return 0, 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// digitRun appends the decimal digits at s[i:] to man, eight at a time
// while eight are left, and returns it with the index past them. A run
// past 19 significant digits overflows man; the caller counts them.
func digitRun(s []byte, i int, man uint64) (uint64, int) {
	for len(s)-i >= 8 {
		w := binary.LittleEndian.Uint64(s[i:])
		if !eightDigits(w) {
			break
		}
		man = man*100000000 + eightDigitsValue(w)
		i += 8
	}
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	return man, i
}

// eightDigits reports whether all eight bytes of w are ASCII digits: a
// digit's high nibble is 3, and stays 3 when 6 is added to it.
func eightDigits(w uint64) bool {
	return (w&0xF0F0F0F0F0F0F0F0)|(((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4) == 0x3333333333333333
}

// eightDigitsValue returns the number spelled by the eight ASCII digits
// of w, the first digit in the lowest byte: adjacent digits are paired
// into bytes, then the four pairs are weighted and summed by two
// multiplications.
func eightDigitsValue(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // byte j: 10·d_j + d_{j+1}
	const pairs = 0x000000FF000000FF
	return ((w&pairs)*(100+1000000<<32) + (w>>16&pairs)*(1+10000<<32)) >> 32
}

// eiselLemire returns man·10^exp10 rounded to the nearest float64, ties
// to even, for man > 0. ok is false when exp10 is outside pow10's window
// or the 128-bit product is too close to a halfway point to decide.
// Inside the window every result is a finite normal float64.
func eiselLemire(man uint64, exp10 int) (v float64, ok bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10[exp10-pow10Min]
	lz := bits.LeadingZeros64(man)
	man <<= lz
	// 217706/2^16 ≈ log2(10): the binary exponent the product lands at.
	exp2 := uint64(217706*exp10>>16 + 64 + 1023 - lz)
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The 64 bits of the power under pow[0] may carry into the bits
		// that decide the rounding: add their product.
		hi2, lo2 := bits.Mul64(man, pow[1])
		mhi, mlo := hi, lo+hi2
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	top := hi >> 63
	mant := hi >> (top + 9) // 54 bits: the result's 53 and a rounding bit
	exp2 -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // on a halfway point, or below it by less than the table's truncation
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}

// pow10's window of decimal exponents: 19 digits times 10^±64 spans
// 1e-64 to 1e83, every .tns value a writer is likely to print.
const (
	pow10Min = -64
	pow10Max = 64
)

// pow10[e-pow10Min] is the 128-bit mantissa of 10^e, truncated: the
// integer in [2^127, 2^128) that 10^e·2^k rounds down to, high word
// first. TestPow10Table rebuilds it with math/big.
var pow10 = [pow10Max - pow10Min + 1][2]uint64{
	{0xA87FEA27A539E9A5, 0x3F2398D747B36224}, // 1e-64
	{0xD29FE4B18E88640E, 0x8EEC7F0D19A03AAD}, // 1e-63
	{0x83A3EEEEF9153E89, 0x1953CF68300424AC}, // 1e-62
	{0xA48CEAAAB75A8E2B, 0x5FA8C3423C052DD7}, // 1e-61
	{0xCDB02555653131B6, 0x3792F412CB06794D}, // 1e-60
	{0x808E17555F3EBF11, 0xE2BBD88BBEE40BD0}, // 1e-59
	{0xA0B19D2AB70E6ED6, 0x5B6ACEAEAE9D0EC4}, // 1e-58
	{0xC8DE047564D20A8B, 0xF245825A5A445275}, // 1e-57
	{0xFB158592BE068D2E, 0xEED6E2F0F0D56712}, // 1e-56
	{0x9CED737BB6C4183D, 0x55464DD69685606B}, // 1e-55
	{0xC428D05AA4751E4C, 0xAA97E14C3C26B886}, // 1e-54
	{0xF53304714D9265DF, 0xD53DD99F4B3066A8}, // 1e-53
	{0x993FE2C6D07B7FAB, 0xE546A8038EFE4029}, // 1e-52
	{0xBF8FDB78849A5F96, 0xDE98520472BDD033}, // 1e-51
	{0xEF73D256A5C0F77C, 0x963E66858F6D4440}, // 1e-50
	{0x95A8637627989AAD, 0xDDE7001379A44AA8}, // 1e-49
	{0xBB127C53B17EC159, 0x5560C018580D5D52}, // 1e-48
	{0xE9D71B689DDE71AF, 0xAAB8F01E6E10B4A6}, // 1e-47
	{0x9226712162AB070D, 0xCAB3961304CA70E8}, // 1e-46
	{0xB6B00D69BB55C8D1, 0x3D607B97C5FD0D22}, // 1e-45
	{0xE45C10C42A2B3B05, 0x8CB89A7DB77C506A}, // 1e-44
	{0x8EB98A7A9A5B04E3, 0x77F3608E92ADB242}, // 1e-43
	{0xB267ED1940F1C61C, 0x55F038B237591ED3}, // 1e-42
	{0xDF01E85F912E37A3, 0x6B6C46DEC52F6688}, // 1e-41
	{0x8B61313BBABCE2C6, 0x2323AC4B3B3DA015}, // 1e-40
	{0xAE397D8AA96C1B77, 0xABEC975E0A0D081A}, // 1e-39
	{0xD9C7DCED53C72255, 0x96E7BD358C904A21}, // 1e-38
	{0x881CEA14545C7575, 0x7E50D64177DA2E54}, // 1e-37
	{0xAA242499697392D2, 0xDDE50BD1D5D0B9E9}, // 1e-36
	{0xD4AD2DBFC3D07787, 0x955E4EC64B44E864}, // 1e-35
	{0x84EC3C97DA624AB4, 0xBD5AF13BEF0B113E}, // 1e-34
	{0xA6274BBDD0FADD61, 0xECB1AD8AEACDD58E}, // 1e-33
	{0xCFB11EAD453994BA, 0x67DE18EDA5814AF2}, // 1e-32
	{0x81CEB32C4B43FCF4, 0x80EACF948770CED7}, // 1e-31
	{0xA2425FF75E14FC31, 0xA1258379A94D028D}, // 1e-30
	{0xCAD2F7F5359A3B3E, 0x096EE45813A04330}, // 1e-29
	{0xFD87B5F28300CA0D, 0x8BCA9D6E188853FC}, // 1e-28
	{0x9E74D1B791E07E48, 0x775EA264CF55347D}, // 1e-27
	{0xC612062576589DDA, 0x95364AFE032A819D}, // 1e-26
	{0xF79687AED3EEC551, 0x3A83DDBD83F52204}, // 1e-25
	{0x9ABE14CD44753B52, 0xC4926A9672793542}, // 1e-24
	{0xC16D9A0095928A27, 0x75B7053C0F178293}, // 1e-23
	{0xF1C90080BAF72CB1, 0x5324C68B12DD6338}, // 1e-22
	{0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03}, // 1e-21
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584}, // 1e-20
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xA000000000000000, 0x0000000000000000}, // 1e1
	{0xC800000000000000, 0x0000000000000000}, // 1e2
	{0xFA00000000000000, 0x0000000000000000}, // 1e3
	{0x9C40000000000000, 0x0000000000000000}, // 1e4
	{0xC350000000000000, 0x0000000000000000}, // 1e5
	{0xF424000000000000, 0x0000000000000000}, // 1e6
	{0x9896800000000000, 0x0000000000000000}, // 1e7
	{0xBEBC200000000000, 0x0000000000000000}, // 1e8
	{0xEE6B280000000000, 0x0000000000000000}, // 1e9
	{0x9502F90000000000, 0x0000000000000000}, // 1e10
	{0xBA43B74000000000, 0x0000000000000000}, // 1e11
	{0xE8D4A51000000000, 0x0000000000000000}, // 1e12
	{0x9184E72A00000000, 0x0000000000000000}, // 1e13
	{0xB5E620F480000000, 0x0000000000000000}, // 1e14
	{0xE35FA931A0000000, 0x0000000000000000}, // 1e15
	{0x8E1BC9BF04000000, 0x0000000000000000}, // 1e16
	{0xB1A2BC2EC5000000, 0x0000000000000000}, // 1e17
	{0xDE0B6B3A76400000, 0x0000000000000000}, // 1e18
	{0x8AC7230489E80000, 0x0000000000000000}, // 1e19
	{0xAD78EBC5AC620000, 0x0000000000000000}, // 1e20
	{0xD8D726B7177A8000, 0x0000000000000000}, // 1e21
	{0x878678326EAC9000, 0x0000000000000000}, // 1e22
	{0xA968163F0A57B400, 0x0000000000000000}, // 1e23
	{0xD3C21BCECCEDA100, 0x0000000000000000}, // 1e24
	{0x84595161401484A0, 0x0000000000000000}, // 1e25
	{0xA56FA5B99019A5C8, 0x0000000000000000}, // 1e26
	{0xCECB8F27F4200F3A, 0x0000000000000000}, // 1e27
	{0x813F3978F8940984, 0x4000000000000000}, // 1e28
	{0xA18F07D736B90BE5, 0x5000000000000000}, // 1e29
	{0xC9F2C9CD04674EDE, 0xA400000000000000}, // 1e30
	{0xFC6F7C4045812296, 0x4D00000000000000}, // 1e31
	{0x9DC5ADA82B70B59D, 0xF020000000000000}, // 1e32
	{0xC5371912364CE305, 0x6C28000000000000}, // 1e33
	{0xF684DF56C3E01BC6, 0xC732000000000000}, // 1e34
	{0x9A130B963A6C115C, 0x3C7F400000000000}, // 1e35
	{0xC097CE7BC90715B3, 0x4B9F100000000000}, // 1e36
	{0xF0BDC21ABB48DB20, 0x1E86D40000000000}, // 1e37
	{0x96769950B50D88F4, 0x1314448000000000}, // 1e38
	{0xBC143FA4E250EB31, 0x17D955A000000000}, // 1e39
	{0xEB194F8E1AE525FD, 0x5DCFAB0800000000}, // 1e40
	{0x92EFD1B8D0CF37BE, 0x5AA1CAE500000000}, // 1e41
	{0xB7ABC627050305AD, 0xF14A3D9E40000000}, // 1e42
	{0xE596B7B0C643C719, 0x6D9CCD05D0000000}, // 1e43
	{0x8F7E32CE7BEA5C6F, 0xE4820023A2000000}, // 1e44
	{0xB35DBF821AE4F38B, 0xDDA2802C8A800000}, // 1e45
	{0xE0352F62A19E306E, 0xD50B2037AD200000}, // 1e46
	{0x8C213D9DA502DE45, 0x4526F422CC340000}, // 1e47
	{0xAF298D050E4395D6, 0x9670B12B7F410000}, // 1e48
	{0xDAF3F04651D47B4C, 0x3C0CDD765F114000}, // 1e49
	{0x88D8762BF324CD0F, 0xA5880A69FB6AC800}, // 1e50
	{0xAB0E93B6EFEE0053, 0x8EEA0D047A457A00}, // 1e51
	{0xD5D238A4ABE98068, 0x72A4904598D6D880}, // 1e52
	{0x85A36366EB71F041, 0x47A6DA2B7F864750}, // 1e53
	{0xA70C3C40A64E6C51, 0x999090B65F67D924}, // 1e54
	{0xD0CF4B50CFE20765, 0xFFF4B4E3F741CF6D}, // 1e55
	{0x82818F1281ED449F, 0xBFF8F10E7A8921A4}, // 1e56
	{0xA321F2D7226895C7, 0xAFF72D52192B6A0D}, // 1e57
	{0xCBEA6F8CEB02BB39, 0x9BF4F8A69F764490}, // 1e58
	{0xFEE50B7025C36A08, 0x02F236D04753D5B4}, // 1e59
	{0x9F4F2726179A2245, 0x01D762422C946590}, // 1e60
	{0xC722F0EF9D80AAD6, 0x424D3AD2B7B97EF5}, // 1e61
	{0xF8EBAD2B84E0D58B, 0xD2E0898765A7DEB2}, // 1e62
	{0x9B934C3B330C8577, 0x63CC55F49F88EB2F}, // 1e63
	{0xC2781F49FFCFA6D5, 0x3CBF6B71C76B25FB}, // 1e64
}
