package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activerules/internal/schema"
)

// orderSchema's rows are what the digest's 8-byte sort key cannot tell
// apart on its own: p's are shorter than 8 bytes or long ints sharing
// their first 8, q's strings share a prefix and hold 0x00 and 0xFF, and
// r's mix every kind, nulls among them.
const orderSchema = "table p (v int)\ntable q (s string)\ntable r (v int, s string, f float, b bool)"

// orderPool is the value domain of the digest-order tests, extended by
// the fuzzer's own string and int.
type orderPool struct {
	ints   []int64
	strs   []string
	floats []float64
}

func newOrderPool(s string, n int64) *orderPool {
	return &orderPool{
		ints: []int64{0, 5, -5, -1, 1234567890, 1234567891, 12345678, 123456789,
			-1234567890, -1234567891, math.MaxInt64, math.MinInt64, n, n + 1, -n},
		strs: []string{"", "a", "\x00", "\xff", "prefix", "prefix\x00", "prefix\x00\x00", "prefix\xff",
			"prefixA", "abcdefghij", "abcdefghik", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
			"\x00\x00\x00\x00\x00\x00\x00\x00\x01", s, s + "\x00", s + "\xff"},
		floats: []float64{0, math.Copysign(0, -1), 1, 1.0000000001, 1.5, -1.5, -2, math.Inf(1), math.Inf(-1), float64(n)},
	}
}

// value picks column type ct's value for byte b: a null for one byte
// in sixteen.
func (p *orderPool) value(ct schema.Type, b byte) Value {
	if b%16 == 15 {
		return Null
	}
	i := int(b / 16)
	switch ct {
	case schema.Int:
		return IntV(p.ints[i%len(p.ints)])
	case schema.String:
		return StringV(p.strs[i%len(p.strs)])
	case schema.Float:
		return FloatV(p.floats[i%len(p.floats)])
	default:
		return BoolV(b&1 == 1)
	}
}

// digestPaths counts the table digests a run took by each path.
type digestPaths struct{ rebuilds, merges, takeOuts int }

// runDigestOrder applies the moves ops encodes to a fresh database over
// orderSchema and reads FingerprintOracle after every digest move and at
// the end. The oracle holds each table digest to the SHA-256 of its
// sorted encodings as CanonicalFingerprint streams them, and Fingerprint
// to CanonicalFingerprint over every state the run reached.
func runDigestOrder(t *testing.T, pool *orderPool, ops []byte) digestPaths {
	t.Helper()
	db := NewDB(schema.MustParse(orderSchema))
	var oracle FingerprintOracle
	var paths digestPaths
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	pick := func() (*Table, TupleID) {
		tbl := db.Table(db.names[int(next())%len(db.names)])
		ids := tbl.IDs()
		if len(ids) == 0 {
			return tbl, 0
		}
		return tbl, ids[int(next())%len(ids)]
	}
	check := func(when string) {
		t.Helper()
		for _, tbl := range db.tables {
			switch {
			case tbl.clean:
			case !tbl.run || len(tbl.gone) >= tbl.nlive:
				paths.rebuilds++
			case len(tbl.gone) > 0:
				paths.takeOuts++
			default:
				paths.merges++
			}
		}
		if err := oracle.Check(db); err != nil {
			t.Fatalf("%s: %v\n%s", when, err, db)
		}
	}
	for step := 0; len(ops) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1, 2:
			tbl := db.Table(db.names[int(next())%len(db.names)])
			vals := make([]Value, len(tbl.def.Columns))
			for i, c := range tbl.def.Columns {
				vals[i] = pool.value(c.Type, next())
			}
			if _, err := db.Insert(tbl.def.Name, vals); err != nil {
				t.Fatal(err)
			}
		case 3:
			if tbl, id := pick(); id != 0 {
				db.DeleteRows(tbl.def.Name, []TupleID{id})
			}
		case 4:
			if tbl, id := pick(); id != 0 {
				c := tbl.def.Columns[int(next())%len(tbl.def.Columns)]
				if err := db.UpdateRows(tbl.def.Name, []string{c.Name}, []TupleID{id}, []Value{pool.value(c.Type, next())}); err != nil {
					t.Fatal(err)
				}
			}
		case 5: // a sweep: every other row of a table, so gone may reach live
			tbl := db.Table(db.names[int(next())%len(db.names)])
			for i, id := range tbl.IDs() {
				if i%2 == 0 {
					db.DeleteRows(tbl.def.Name, []TupleID{id})
				}
			}
		default:
			check(fmt.Sprintf("digest at step %d", step))
		}
	}
	check("the end")
	return paths
}

// digestPlacements are op streams for runDigestOrder that place merged
// rows where the merge's ranking has a boundary: each digests table p's
// rows, adds some and digests again (an insert is 0, 0 and a value byte,
// 6 digests, 3, 0 and an index deletes; value byte 16*i picks ints[i]).
var digestPlacements = []struct {
	name string
	ops  []byte
}{
	// "I-1" sorts below "I5", "I1234567890" and "I1234567891".
	{"below-every-kept-row", []byte{0, 0, 0x10, 0, 0, 0x40, 0, 0, 0x50, 6, 0, 0, 0x30, 6}},
	// "I9223372036854775807" sorts after "I0" and "I5".
	{"tail-append", []byte{0, 0, 0x00, 0, 0, 0x10, 6, 0, 0, 0xa0, 6}},
	// Kept "I-1234567890" < "I1234567890" < "I5"; the new rows go below,
	// between and after them: "I-1234567891", "I12345678", "I1234567891",
	// "I9223372036854775807".
	{"interleaved", []byte{0, 0, 0x80, 0, 0, 0x40, 0, 0, 0x10, 6, 0, 0, 0x90, 0, 0, 0x60, 0, 0, 0x50, 0, 0, 0xa0, 6}},
	// "I5" kept twice, merged twice more, then two of the four taken out.
	{"equal-on-both-sides", []byte{0, 0, 0x10, 0, 0, 0x10, 0, 0, 0x00, 6, 0, 0, 0x10, 0, 0, 0x10, 6, 3, 0, 0, 3, 0, 0, 6}},
}

// TestDigestOrderDifferential drives rebuilds, append merges and
// gone-row take-outs over rows whose encodings share their first 8
// bytes, are shorter than 8, hold 0x00 and 0xFF, or are negative ints,
// nulls, bools and floats: the rows the digest's sort key orders only
// with the byte comparison's help (prefixKey). The placements above run
// first.
func TestDigestOrderDifferential(t *testing.T) {
	for _, c := range digestPlacements {
		t.Run(c.name, func(t *testing.T) {
			if p := runDigestOrder(t, newOrderPool("prefix", 7), c.ops); p.merges == 0 {
				t.Errorf("no merge: %+v", p)
			}
		})
	}
	var total digestPaths
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 1200)
		rng.Read(ops)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			p := runDigestOrder(t, newOrderPool("prefix\x00\xff", 1234567899), ops)
			total.rebuilds, total.merges, total.takeOuts = total.rebuilds+p.rebuilds, total.merges+p.merges, total.takeOuts+p.takeOuts
		})
	}
	if total.rebuilds == 0 || total.merges == 0 || total.takeOuts == 0 {
		t.Errorf("digest paths taken: %+v; want every one", total)
	}
}

// FuzzDigestOrder is TestDigestOrderDifferential under the fuzzer, which
// also picks one string and one int of the pool. It first holds
// prefixKey to its contract on two byte strings: where the keys differ,
// they order as bytes.Compare does.
func FuzzDigestOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0x10, 0, 0, 0x20, 6, 1, 0x50, 1, 1, 0x60, 6, 3, 0, 0, 6, 4, 0, 0, 0, 0x30, 6}, "prefix", int64(1234567892))
	f.Add([]byte{2, 2, 0x10, 0x50, 0x20, 1, 2, 2, 0x20, 0x60, 0x30, 0, 2, 2, 0x0f, 0x7f, 0x40, 1, 7, 5, 2, 7}, "\x00\xff", int64(-7))
	f.Add([]byte{1, 1, 0xe0, 1, 1, 0xf0, 1, 1, 0xd0, 7, 1, 1, 0x30, 3, 1, 0, 7, 4, 1, 1, 0, 0xe0, 7}, "abcdefgh", int64(math.MinInt64))
	f.Add([]byte("\x00\x00\x00\x01\x00\x10\x02\x00\xe0\x06\x05\x00\x06\x00\x00\x20\x07"), "", int64(0))
	for _, c := range digestPlacements {
		f.Add(c.ops, "prefix", int64(7))
	}
	f.Fuzz(func(t *testing.T, ops []byte, s string, n int64) {
		a, b := ops, []byte(s)
		if ka, kb := prefixKey(a), prefixKey(b); ka != kb && cmp.Compare(ka, kb) != bytes.Compare(a, b) {
			t.Fatalf("keys %#x, %#x order %q, %q against bytes.Compare", ka, kb, a, b)
		}
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runDigestOrder(t, newOrderPool(s, n), ops)
	})
}
