package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Binary format (version 1):
//
//	tuple     := count:uvarint field*
//	field     := tag:byte payload
//	tag       := kind (low 5 bits) | formalBit (0x20)
//	payload   := int:varint | float:8 bytes BE | string/bytes: len:uvarint raw
//	           | bool: 1 byte | tuple: nested tuple | (formals: empty)
//
// The same encoding serves tuples and templates; tuples reject formal tags
// at decode time.

const formalBit = 0x20

// Codec errors.
var (
	// ErrCodec reports malformed tuple wire data.
	ErrCodec = errors.New("tuple: malformed encoding")
	// ErrTooLarge reports an encoding whose declared sizes exceed sane bounds.
	ErrTooLarge = errors.New("tuple: encoded value too large")
)

// maxDecode caps individual string/bytes/arity sizes to defend against
// hostile or corrupt length prefixes.
const maxDecode = 1 << 26 // 64 MiB

// AppendBinary appends the tuple's encoding to dst and returns the result.
func (t Tuple) AppendBinary(dst []byte) []byte {
	return appendFields(dst, t.fields)
}

// MarshalBinary encodes the tuple.
func (t Tuple) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(nil), nil
}

// AppendBinary appends the template's encoding to dst and returns the result.
func (p Template) AppendBinary(dst []byte) []byte {
	return appendFields(dst, p.fields)
}

// MarshalBinary encodes the template.
func (p Template) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(nil), nil
}

func appendFields(dst []byte, fields []Field) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fields)))
	for _, f := range fields {
		tag := byte(f.kind)
		if f.formal {
			tag |= formalBit
		}
		dst = append(dst, tag)
		if f.formal {
			continue
		}
		switch f.kind {
		case KindInt:
			dst = binary.AppendVarint(dst, f.i)
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.f))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(f.s)))
			dst = append(dst, f.s...)
		case KindBool:
			if f.i != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(f.b)))
			dst = append(dst, f.b...)
		case KindTuple:
			dst = appendFields(dst, f.t)
		}
	}
	return dst
}

// share says how much of a decoded value aliases the buffer it came from.
type share uint8

const (
	shareNone  share = iota // nothing: bytes fields are copied
	shareBytes              // bytes fields alias src; strings are copied
	shareAll                // strings alias src too: src never changes again
)

// decodeFields decodes a field list, aliasing src as sh allows. The top
// level goes into into's storage when it is non-nil and the arity fits
// its capacity; nested tuples always get slices of their own.
func decodeFields(src []byte, allowFormals bool, depth int, sh share, into []Field) (fields []Field, rest []byte, err error) {
	if depth > 32 {
		return nil, nil, fmt.Errorf("nesting too deep: %w", ErrTooLarge)
	}
	n, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, fmt.Errorf("arity: %w", ErrCodec)
	}
	if n > maxDecode {
		return nil, nil, fmt.Errorf("arity %d: %w", n, ErrTooLarge)
	}
	src = src[used:]
	if into != nil && n <= uint64(cap(into)) {
		fields = into[:0]
	} else {
		// Every field takes at least its kind byte: reserve no more than
		// the input can hold, whatever the arity claims.
		fields = make([]Field, 0, min(n, uint64(len(src))))
	}
	for i := uint64(0); i < n; i++ {
		if len(src) == 0 {
			return nil, nil, fmt.Errorf("truncated at field %d: %w", i, ErrCodec)
		}
		tag := src[0]
		src = src[1:]
		f := Field{kind: Kind(tag &^ formalBit), formal: tag&formalBit != 0}
		if f.kind == KindInvalid || f.kind > KindAny {
			return nil, nil, fmt.Errorf("field %d: bad kind %d: %w", i, f.kind, ErrCodec)
		}
		if f.kind == KindAny && !f.formal {
			return nil, nil, fmt.Errorf("field %d: actual any: %w", i, ErrCodec)
		}
		if f.formal {
			if !allowFormals {
				return nil, nil, fmt.Errorf("field %d: %w", i, ErrFormalInTuple)
			}
			fields = append(fields, f)
			continue
		}
		switch f.kind {
		case KindInt:
			v, used := binary.Varint(src)
			if used <= 0 {
				return nil, nil, fmt.Errorf("field %d int: %w", i, ErrCodec)
			}
			f.i, src = v, src[used:]
		case KindFloat:
			if len(src) < 8 {
				return nil, nil, fmt.Errorf("field %d float: %w", i, ErrCodec)
			}
			f.f, src = math.Float64frombits(binary.BigEndian.Uint64(src)), src[8:]
		case KindString:
			var s []byte
			s, src, err = decodeBlob(src)
			if err != nil {
				return nil, nil, fmt.Errorf("field %d string: %w", i, err)
			}
			if sh == shareAll {
				f.s = unsafe.String(unsafe.SliceData(s), len(s))
			} else {
				f.s = string(s)
			}
		case KindBool:
			if len(src) < 1 {
				return nil, nil, fmt.Errorf("field %d bool: %w", i, ErrCodec)
			}
			if src[0] > 1 {
				return nil, nil, fmt.Errorf("field %d bool value %d: %w", i, src[0], ErrCodec)
			}
			f.i, src = int64(src[0]), src[1:]
		case KindBytes:
			var b []byte
			b, src, err = decodeBlob(src)
			if err != nil {
				return nil, nil, fmt.Errorf("field %d bytes: %w", i, err)
			}
			if sh == shareNone {
				f.b = append([]byte(nil), b...)
			} else {
				f.b = b
			}
		case KindTuple:
			f.t, src, err = decodeFields(src, allowFormals, depth+1, sh, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("field %d nested: %w", i, err)
			}
		}
		fields = append(fields, f)
	}
	return fields, src, nil
}

func decodeBlob(src []byte) (blob, rest []byte, err error) {
	n, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, ErrCodec
	}
	if n > maxDecode {
		return nil, nil, ErrTooLarge
	}
	src = src[used:]
	if uint64(len(src)) < n {
		return nil, nil, ErrCodec
	}
	return src[:n:n], src[n:], nil
}

// DecodeTuple decodes a tuple from src, returning the remaining bytes.
// The result shares no memory with src.
func DecodeTuple(src []byte) (Tuple, []byte, error) {
	fields, rest, err := decodeFields(src, false, 0, shareNone, nil)
	if err != nil {
		return Tuple{}, nil, err
	}
	return Tuple{fields: fields}, rest, nil
}

// DecodeTemplate decodes a template from src, returning the remaining bytes.
// The result shares no memory with src.
func DecodeTemplate(src []byte) (Template, []byte, error) {
	fields, rest, err := decodeFields(src, true, 0, shareNone, nil)
	if err != nil {
		return Template{}, nil, err
	}
	return Template{fields: fields}, rest, nil
}

// DecodeTupleNoCopy decodes a tuple whose bytes fields alias src. It
// avoids per-field allocations on the hot receive path; the caller must
// either consume the tuple before reusing src or detach it with
// Tuple.Copy. Safe whenever src outlives the tuple (e.g. a per-frame
// read buffer).
func DecodeTupleNoCopy(src []byte) (Tuple, []byte, error) {
	fields, rest, err := decodeFields(src, false, 0, shareBytes, nil)
	if err != nil {
		return Tuple{}, nil, err
	}
	return Tuple{fields: fields}, rest, nil
}

// DecodeTemplateNoCopy decodes a template whose bytes fields alias src;
// see DecodeTupleNoCopy for the lifetime contract.
func DecodeTemplateNoCopy(src []byte) (Template, []byte, error) {
	fields, rest, err := decodeFields(src, true, 0, shareBytes, nil)
	if err != nil {
		return Template{}, nil, err
	}
	return Template{fields: fields}, rest, nil
}

// DecodeTupleInto decodes a tuple whose string and bytes fields both
// alias src, with its top-level fields in fields' storage when the arity
// fits cap(fields) (otherwise they are allocated). src must never change
// again while the tuple lives: it suits a buffer its owner writes once,
// such as a received frame a decoded message keeps. Tuple.Copy detaches.
func DecodeTupleInto(src []byte, fields []Field) (Tuple, []byte, error) {
	fields, rest, err := decodeFields(src, false, 0, shareAll, fields)
	if err != nil {
		return Tuple{}, nil, err
	}
	return Tuple{fields: fields}, rest, nil
}

// DecodeTemplateInto is DecodeTupleInto for a template.
func DecodeTemplateInto(src []byte, fields []Field) (Template, []byte, error) {
	fields, rest, err := decodeFields(src, true, 0, shareAll, fields)
	if err != nil {
		return Template{}, nil, err
	}
	return Template{fields: fields}, rest, nil
}

// UnmarshalBinary decodes the tuple, requiring all input to be consumed.
func (t *Tuple) UnmarshalBinary(data []byte) error {
	v, rest, err := DecodeTuple(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes: %w", len(rest), ErrCodec)
	}
	*t = v
	return nil
}

// UnmarshalBinary decodes the template, requiring all input to be consumed.
func (p *Template) UnmarshalBinary(data []byte) error {
	v, rest, err := DecodeTemplate(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes: %w", len(rest), ErrCodec)
	}
	*p = v
	return nil
}
