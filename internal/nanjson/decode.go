package nanjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// Unmarshal reads a JSON object into the struct v points to, replacing
// its whole value; on an error v is left as it was. A tagged float that
// is null or absent reads as NaN, and so does every float of a nested
// struct value whose key is absent; any other absent field reads as its
// zero value. Keys match their tag names exactly. With strict, a key
// that names no tagged field is an error; without, it is skipped.
//
// The object is read in one walk. Floats and errors are read in place;
// every other value is handed whole to the decoder of its type (its own
// UnmarshalJSON, or encoding/json), which checks it.
func Unmarshal(data []byte, v any, strict bool) error {
	rv := reflect.ValueOf(v).Elem()
	p := planOf(rv.Type())
	out := reflect.New(rv.Type()).Elem()
	out.Set(p.blank)
	w := &walker{data: data}
	err := p.decode(w, out, strict)
	if w.space(); err == nil && w.i < len(data) {
		err = fmt.Errorf("data after the object: %.20q", data[w.i:])
	}
	if err != nil {
		return fmt.Errorf("%s: %w", rv.Type(), err)
	}
	rv.Set(out)
	return nil
}

func (p *plan) decode(w *walker, v reflect.Value, strict bool) error {
	if w.null() {
		return nil
	}
	if !w.consume('{') {
		return errors.New("not an object")
	}
	for n := 0; !w.consume('}'); n++ {
		if n > 0 && !w.consume(',') {
			return w.syntaxError()
		}
		key, err := w.next()
		if err != nil {
			return err
		}
		if !w.consume(':') {
			return w.syntaxError()
		}
		raw, err := w.next()
		if err != nil {
			return err
		}
		if key[0] != '"' {
			return fmt.Errorf("key %s is not a string", key)
		}
		i, ok := p.index[string(key[1:len(key)-1])]
		if !ok { // an unknown or escaped key
			name, err := unquote(key)
			if err != nil {
				return err
			}
			i, ok = p.index[name]
		}
		if ok {
			f := &p.fields[i]
			err = f.dec(raw, v.Field(f.index))
		} else if strict {
			err = errors.New("unknown field")
		} else if !json.Valid(raw) {
			err = errors.New("invalid value")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// decodeFunc reads one value, as the walker delimited it, into v, and
// checks what the walker did not.
type decodeFunc func(raw []byte, v reflect.Value) error

var unmarshalerType = reflect.TypeFor[json.Unmarshaler]()

func decoderOf(t reflect.Type) decodeFunc {
	switch {
	case t.Kind() == reflect.Pointer:
		elem := decoderOf(t.Elem())
		return func(raw []byte, v reflect.Value) error {
			if isNull(raw) {
				v.SetZero()
				return nil
			}
			p := reflect.New(t.Elem())
			v.Set(p)
			return elem(raw, p.Elem())
		}
	case t == errorType:
		return func(raw []byte, v reflect.Value) error {
			if isNull(raw) {
				v.SetZero()
				return nil
			}
			s, err := unquote(raw)
			v.Set(reflect.ValueOf(errors.New(s)))
			return err
		}
	case reflect.PointerTo(t).Implements(unmarshalerType):
		return func(raw []byte, v reflect.Value) error {
			return v.Addr().Interface().(json.Unmarshaler).UnmarshalJSON(raw)
		}
	}
	switch t.Kind() {
	case reflect.Float64:
		return func(raw []byte, v reflect.Value) error {
			if isNull(raw) {
				v.SetFloat(math.NaN())
				return nil
			}
			if !isNumber(raw) {
				return fmt.Errorf("cannot read %s into a number", raw)
			}
			f, err := strconv.ParseFloat(string(raw), 64)
			v.SetFloat(f)
			return err
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			break // base64, encoding/json's job
		}
		elem := decoderOf(t.Elem())
		return func(raw []byte, v reflect.Value) error {
			if isNull(raw) {
				v.SetZero()
				return nil
			}
			w := &walker{data: raw}
			if !w.consume('[') {
				return fmt.Errorf("cannot read %s into an array", raw)
			}
			s := reflect.MakeSlice(t, 0, 0)
			for i := 0; !w.consume(']'); i++ {
				if i > 0 && !w.consume(',') {
					return w.syntaxError()
				}
				e, err := w.next()
				if err != nil {
					return err
				}
				s = reflect.Append(s, reflect.Zero(t.Elem()))
				if err := elem(e, s.Index(i)); err != nil {
					return err
				}
			}
			v.Set(s)
			return nil
		}
	}
	return func(raw []byte, v reflect.Value) error {
		return json.Unmarshal(raw, v.Addr().Interface())
	}
}

func isNull(raw []byte) bool { return string(raw) == "null" }

// isNumber reports whether raw is a JSON number; strconv alone would
// also take forms JSON does not have, such as 0x1p3 or -Inf.
func isNumber(raw []byte) bool {
	return (raw[0] == '-' || '0' <= raw[0] && raw[0] <= '9') && json.Valid(raw)
}

// unquote returns the string a JSON string literal holds. Printable
// ASCII without escapes is the literal's own bytes; anything else goes
// through encoding/json.
func unquote(raw []byte) (string, error) {
	if raw[0] != '"' {
		return "", fmt.Errorf("cannot read %s into a string", raw)
	}
	for _, c := range raw[1 : len(raw)-1] {
		if c < 0x20 || c == '\\' || c >= 0x80 {
			var s string
			err := json.Unmarshal(raw, &s)
			return s, err
		}
	}
	return string(raw[1 : len(raw)-1]), nil
}

// walker steps through a JSON document. It checks the tokens it reads
// itself and finds where each value ends; the value's decoder checks
// the rest.
type walker struct {
	data []byte
	i    int
}

func (w *walker) space() {
	for w.i < len(w.data) && (w.data[w.i] == ' ' || w.data[w.i] == '\t' || w.data[w.i] == '\n' || w.data[w.i] == '\r') {
		w.i++
	}
}

// consume takes c if it is the next byte after whitespace.
func (w *walker) consume(c byte) bool {
	w.space()
	if w.i < len(w.data) && w.data[w.i] == c {
		w.i++
		return true
	}
	return false
}

// null takes a null if it is the next token after whitespace.
func (w *walker) null() bool {
	w.space()
	if isNull(w.data[w.i:min(w.i+4, len(w.data))]) {
		w.i += 4
		return true
	}
	return false
}

func (w *walker) syntaxError() error {
	if w.i == len(w.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", w.data[w.i], w.i)
}

// next steps over the next value, a string, container or scalar
// token, and returns its bytes.
func (w *walker) next() ([]byte, error) {
	w.space()
	start := w.i
	for depth := 0; w.i < len(w.data); {
		switch w.data[w.i] {
		case '"':
			for w.i++; w.i < len(w.data) && w.data[w.i] != '"'; w.i++ {
				if w.data[w.i] == '\\' {
					w.i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth < 0 {
				return nil, w.syntaxError()
			}
		default:
			if depth == 0 { // a number or a literal
				for w.i < len(w.data) && !isDelimiter(w.data[w.i]) {
					w.i++
				}
				if w.i == start {
					return nil, w.syntaxError()
				}
				return w.data[start:w.i], nil
			}
		}
		if w.i++; depth == 0 && w.i <= len(w.data) {
			return w.data[start:w.i], nil
		}
	}
	return nil, errors.New("unexpected end of JSON input")
}

func isDelimiter(c byte) bool {
	switch c {
	case ',', ':', '{', '}', '[', ']', '"', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}
