// Package nanjson is the JSON codec of the documents the sampling
// service serves. Their quantities — a kept mean before the first
// sample, a variance below two, a Hurst estimate before it resolves —
// are legitimately NaN, which encoding/json refuses. nanjson writes a
// struct straight from its json tags, with one rule on top: a float
// that is NaN or ±Inf is written as null, and null (or an absent key)
// reads back as NaN.
//
// A document type declares each field once, tagged, and marshals
// through one-line methods:
//
//	func (s Summary) MarshalJSON() ([]byte, error)     { return nanjson.Marshal(&s) }
//	func (s *Summary) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, s, false) }
//
// Only json-tagged fields are written, in declaration order; the tag
// options honoured are the name, "-" and omitempty. An error field is
// written as its message and reads back as errors.New(message).
// Every other field is written as encoding/json writes it, except that
// a nested MarshalJSON's output is appended as it stands, not
// re-compacted: the nested documents are this codec's own. Reading
// matches keys to tag names exactly and accepts only valid JSON.
package nanjson

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Marshal writes the json-tagged fields of the struct v points to as
// one JSON object. Through the pointer every field is addressable, so a
// nested marshaler is called without copying its value.
func Marshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v).Elem()
	p := planOf(rv.Type())
	b, err := p.append(make([]byte, 0, p.size.Load()), rv)
	if err != nil {
		return nil, err
	}
	p.size.Store(int64(len(b)))
	return b, nil
}

// plan is the codec of one struct type, built once from its tags.
type plan struct {
	fields []field
	index  map[string]int // tag name -> position in fields
	// blank is the value Unmarshal starts from: zero, with NaN in every
	// tagged float64 and every float64 of a tagged struct value.
	blank reflect.Value
	size  atomic.Int64 // length of the last document, the next buffer's capacity
}

type field struct {
	index     int
	key       []byte // `"name":`
	omitEmpty bool
	enc       encoder
	dec       decodeFunc
}

var plans sync.Map // reflect.Type -> *plan

var errorType = reflect.TypeFor[error]()

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if t.Kind() != reflect.Struct {
		panic("nanjson: " + t.String() + " is not a struct")
	}
	p := &plan{index: make(map[string]int), blank: reflect.New(t).Elem()}
	for i := range t.NumField() {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("json")
		if !ok || tag == "-" || !sf.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		key, _ := json.Marshal(name)
		p.index[name] = len(p.fields)
		p.fields = append(p.fields, field{
			index:     i,
			key:       append(key, ':'),
			omitEmpty: strings.Contains(","+opts+",", ",omitempty,"),
			enc:       encoderOf(sf.Type),
			dec:       decoderOf(sf.Type),
		})
		fillNaN(p.blank.Field(i))
	}
	p.size.Store(256)
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*plan)
}

// fillNaN sets v to NaN if it is a float64, and every exported float64
// inside it if it is a struct.
func fillNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillNaN(v.Field(i))
			}
		}
	}
}

func (p *plan) append(b []byte, v reflect.Value) ([]byte, error) {
	b = append(b, '{')
	first := true
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		if f.omitEmpty && isEmpty(fv) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, f.key...)
		var err error
		if b, err = f.enc(b, fv); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// isEmpty is encoding/json's omitempty test.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// encoder appends the JSON form of v to b.
type encoder func(b []byte, v reflect.Value) ([]byte, error)

var marshalerType = reflect.TypeFor[json.Marshaler]()

func encoderOf(t reflect.Type) encoder {
	switch {
	case t.Kind() == reflect.Pointer:
		elem := encoderOf(t.Elem())
		return func(b []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				return append(b, "null"...), nil
			}
			return elem(b, v.Elem())
		}
	case t == errorType:
		return encodeError
	case reflect.PointerTo(t).Implements(marshalerType):
		return encodeMarshaler
	}
	switch t.Kind() {
	case reflect.Float64:
		return encodeFloat
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) ([]byte, error) { return strconv.AppendInt(b, v.Int(), 10), nil }
	case reflect.Bool:
		return func(b []byte, v reflect.Value) ([]byte, error) { return strconv.AppendBool(b, v.Bool()), nil }
	case reflect.String:
		return func(b []byte, v reflect.Value) ([]byte, error) { return appendString(b, v.String()), nil }
	case reflect.Slice:
		if t.Elem().Kind() != reflect.Uint8 { // []byte is base64, encoding/json's job
			return sliceEncoder(encoderOf(t.Elem()))
		}
	}
	return func(b []byte, v reflect.Value) ([]byte, error) {
		out, err := json.Marshal(v.Interface())
		return append(b, out...), err
	}
}

func sliceEncoder(elem encoder) encoder {
	return func(b []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i := range v.Len() {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = elem(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(b, ']'), nil
	}
}

// encodeMarshaler calls the value's own MarshalJSON through its
// address: every value the codec reaches is addressable.
func encodeMarshaler(b []byte, v reflect.Value) ([]byte, error) {
	out, err := v.Addr().Interface().(json.Marshaler).MarshalJSON()
	return append(b, out...), err
}

func encodeError(b []byte, v reflect.Value) ([]byte, error) {
	if v.IsNil() {
		return append(b, "null"...), nil
	}
	return appendString(b, v.Interface().(error).Error()), nil
}

// encodeFloat writes NaN and ±Inf as null, and every other value in
// encoding/json's format: 'e' outside [1e-6, 1e21), with a one-digit
// negative exponent unpadded.
func encodeFloat(b []byte, v reflect.Value) ([]byte, error) {
	f := v.Float()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString quotes s as encoding/json does, HTML-safe. Plain ASCII
// is copied as it stands; anything that needs escaping goes through
// encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			out, _ := json.Marshal(s)
			return append(b, out...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
