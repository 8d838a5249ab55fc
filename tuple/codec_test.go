package tuple

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// genTuple builds a pseudo-random tuple for property tests.
func genTuple(r *rand.Rand, depth int) Tuple {
	n := r.Intn(6)
	fields := make([]Field, 0, n)
	for i := 0; i < n; i++ {
		fields = append(fields, genActualField(r, depth))
	}
	return Tuple{fields: fields}
}

func genActualField(r *rand.Rand, depth int) Field {
	max := 6
	if depth >= 3 {
		max = 5 // no deeper nesting
	}
	switch r.Intn(max) {
	case 0:
		return Int(r.Int63() - r.Int63())
	case 1:
		return Float(r.NormFloat64())
	case 2:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return String(string(b))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return Bytes(b)
	default:
		return Nested(genTuple(r, depth+1))
	}
}

func genTemplate(r *rand.Rand, depth int) Template {
	n := r.Intn(6)
	fields := make([]Field, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(8) {
		case 0:
			fields = append(fields, FormalInt())
		case 1:
			fields = append(fields, FormalString())
		case 2:
			fields = append(fields, Any())
		case 3:
			fields = append(fields, FormalTuple())
		default:
			fields = append(fields, genActualField(r, depth))
		}
	}
	return Template{fields: fields}
}

// randTuple adapts genTuple to testing/quick.
type randTuple struct{ T Tuple }

func (randTuple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randTuple{T: genTuple(r, 0)})
}

type randTemplate struct{ P Template }

func (randTemplate) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randTemplate{P: genTemplate(r, 0)})
}

func TestPropTupleCodecRoundTrip(t *testing.T) {
	prop := func(rt randTuple) bool {
		data, err := rt.T.MarshalBinary()
		if err != nil {
			return false
		}
		var back Tuple
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		return back.Equal(rt.T) && back.Hash() == rt.T.Hash()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTemplateCodecRoundTrip(t *testing.T) {
	prop := func(rp randTemplate) bool {
		data, err := rp.P.MarshalBinary()
		if err != nil {
			return false
		}
		var back Template
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		if back.Arity() != rp.P.Arity() {
			return false
		}
		// The round-tripped template must behave identically on a probe.
		probe := genTuple(rand.New(rand.NewSource(int64(rp.P.Arity()))), 0)
		return back.Matches(probe) == rp.P.Matches(probe)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTemplateOfMatchesSelf(t *testing.T) {
	prop := func(rt randTuple) bool {
		return TemplateOf(rt.T).Matches(rt.T)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEqualImpliesMatchSymmetry(t *testing.T) {
	prop := func(a, b randTuple) bool {
		if a.T.Equal(b.T) != b.T.Equal(a.T) {
			return false
		}
		if a.T.Equal(b.T) && a.T.Hash() != b.T.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecKnownVectors(t *testing.T) {
	tp := T(String("hi"), Int(-1), Bool(true), Float(0))
	data := tp.AppendBinary(nil)
	var back Tuple
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tp) {
		t.Fatalf("round trip mismatch: %v != %v", back, tp)
	}
}

func TestCodecEmptyTuple(t *testing.T) {
	data := T().AppendBinary(nil)
	var back Tuple
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Arity() != 0 {
		t.Fatalf("arity = %d, want 0", back.Arity())
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, math.MaxFloat64} {
		tp := T(Float(v))
		var back Tuple
		if err := back.UnmarshalBinary(tp.AppendBinary(nil)); err != nil {
			t.Fatalf("float %g: %v", v, err)
		}
		got, _ := back.FloatAt(0)
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Errorf("NaN round-trip = %g", got)
			}
		} else if got != v {
			t.Errorf("float %g round-trip = %g", v, got)
		}
	}
}

func TestDecodeTupleRejectsFormals(t *testing.T) {
	p := Tmpl(FormalInt())
	data := p.AppendBinary(nil)
	var back Tuple
	if err := back.UnmarshalBinary(data); !errors.Is(err, ErrFormalInTuple) {
		t.Fatalf("decoding formal into Tuple: err = %v, want ErrFormalInTuple", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"bad kind":          {1, 31},
		"truncated int":     {1, byte(KindInt)},
		"truncated float":   {1, byte(KindFloat), 1, 2},
		"truncated string":  {1, byte(KindString), 10, 'a'},
		"truncated bool":    {1, byte(KindBool)},
		"bad bool value":    {1, byte(KindBool), 7},
		"actual any":        {1, byte(KindAny)},
		"huge arity":        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"missing fields":    {3, byte(KindBool), 1},
		"huge string":       {1, byte(KindString), 0xff, 0xff, 0xff, 0xff, 0x7f},
		"trailing garbage":  append(T(Int(1)).AppendBinary(nil), 0xde, 0xad),
		"truncated nesting": {1, byte(KindTuple)},
	}
	for name, data := range cases {
		var back Tuple
		if err := back.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestDecodeDeepNestingBounded(t *testing.T) {
	// Craft 40 levels of nesting; decoder must reject beyond its bound
	// instead of recursing unboundedly.
	data := []byte{}
	for i := 0; i < 40; i++ {
		data = append(data, 1, byte(KindTuple))
	}
	data = append(data, 0)
	var back Tuple
	if err := back.UnmarshalBinary(data); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("deep nesting: err = %v, want ErrTooLarge", err)
	}
}

// TestDecodeArityBoundedByInput: a million-field arity in front of two
// bytes fails without reserving room for the fields it claims.
func TestDecodeArityBoundedByInput(t *testing.T) {
	data := append(binary.AppendUvarint(nil, 1<<20), byte(KindBool), 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var back Tuple
	if err := back.UnmarshalBinary(data); err == nil {
		t.Fatal("decode succeeded, want error")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
}

func TestDecodeReturnsRest(t *testing.T) {
	a := T(Int(1)).AppendBinary(nil)
	b := T(String("x")).AppendBinary(nil)
	joined := append(append([]byte{}, a...), b...)
	first, rest, err := DecodeTuple(joined)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(T(Int(1))) {
		t.Fatalf("first = %v", first)
	}
	second, rest, err := DecodeTuple(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Equal(T(String("x"))) || len(rest) != 0 {
		t.Fatalf("second = %v rest = %d", second, len(rest))
	}
}

func FuzzDecodeTuple(f *testing.F) {
	f.Add(T(String("seed"), Int(42)).AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{1, byte(KindTuple), 1, byte(KindInt), 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tp Tuple
		if err := tp.UnmarshalBinary(data); err != nil {
			return
		}
		// Re-encoding a successfully decoded tuple must round-trip.
		var back Tuple
		if err := back.UnmarshalBinary(tp.AppendBinary(nil)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !back.Equal(tp) {
			t.Fatalf("re-decode mismatch: %v != %v", back, tp)
		}
	})
}
