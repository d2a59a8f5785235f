package runner

// The cache's value codec, entry format 3; DESIGN.md §9 has the layout. A
// type compiles once into a shape, which refuses a map, interface, func, chan
// or unexported field outside a struct that codes itself, so no field is
// dropped silently. Decoding treats its input as hostile: varints must be
// minimal, and a claimed length or count is checked against the bytes that
// remain before anything is allocated.

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
)

// shape is the codec compiled for one type.
type shape struct {
	kind reflect.Kind
	self bool     // a struct that codes itself
	elem *shape   // array, slice or pointer element
	subs []*shape // struct fields, all exported, in order
	min  int      // fewest bytes a value encodes to, bounding a slice's count
	desc string   // field names and kinds, recursively, hashed into fp
	fp   uint64   // in the entry header, so a reshaped type's entry misses
}

var (
	shapes     sync.Map // reflect.Type -> *shape
	selfCoding = reflect.TypeOf((*interface {
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	})(nil)).Elem()
	errMalformed = errors.New("runner: malformed cache entry")
)

// shapeOf returns t's codec, compiling it on first use. t must not be
// recursive (no cached type is): its compile would never finish.
func shapeOf(t reflect.Type) (s *shape, err error) {
	if s, ok := shapes.Load(t); ok {
		return s.(*shape), nil
	}
	k := t.Kind()
	s = &shape{kind: k, min: 1, desc: k.String()}
	switch {
	case k == reflect.Struct && reflect.PointerTo(t).Implements(selfCoding):
		s.self, s.desc = true, t.String()
	case k == reflect.Bool, k >= reflect.Int && k <= reflect.Uint64, k == reflect.String:
	case k == reflect.Float32, k == reflect.Float64:
		s.min = 8
	case k == reflect.Array, k == reflect.Slice, k == reflect.Pointer:
		if s.elem, err = shapeOf(t.Elem()); err != nil {
			return nil, err
		}
		if k == reflect.Array {
			s.min, s.desc = t.Len()*s.elem.min, fmt.Sprint(k, t.Len())
		} else if k == reflect.Slice && s.elem.min == 0 {
			return nil, fmt.Errorf("runner: cannot cache %v: its elements encode to no bytes", t)
		}
		s.desc += "(" + s.elem.desc + ")"
	case k == reflect.Struct:
		s.min = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, fmt.Errorf("runner: cannot cache %v: unexported field %s", t, f.Name)
			}
			sub, err := shapeOf(f.Type)
			if err != nil {
				return nil, err
			}
			s.subs, s.min, s.desc = append(s.subs, sub), s.min+sub.min, s.desc+" "+f.Name+":"+sub.desc
		}
		s.desc += ";"
	default:
		return nil, fmt.Errorf("runner: cannot cache a %v (%v)", k, t)
	}
	h := fnv.New64a()
	h.Write([]byte(s.desc))
	s.fp = h.Sum64()
	shapes.Store(t, s)
	return s, nil
}

// record is a record being written, or the unread rest of one being read.
// Its first error sticks; reads after it yield zeros, which allocate nothing.
type record struct {
	b   []byte
	err error
}

func (r *record) check(ok bool) bool {
	if !ok && r.err == nil {
		r.err = errMalformed
	}
	return ok
}

func (r *record) put(x uint64) { r.b = binary.AppendUvarint(r.b, x) }

func (r *record) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if !r.check(n == 1 || n > 1 && r.b[n-1] != 0) {
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *record) next(n uint64) []byte {
	if !r.check(n <= uint64(len(r.b))) {
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func bit(x bool) uint64 {
	if x {
		return 1
	}
	return 0
}

// encode appends v, which must be addressable if s holds a self-coded struct.
func (s *shape) encode(w *record, v reflect.Value) {
	switch k := s.kind; {
	case s.self:
		blob, err := v.Addr().Interface().(encoding.BinaryMarshaler).MarshalBinary()
		w.err = errors.Join(w.err, err)
		w.b = append(binary.AppendUvarint(w.b, uint64(len(blob))), blob...)
	case k == reflect.Bool:
		w.put(bit(v.Bool()))
	case k >= reflect.Int && k <= reflect.Int64:
		w.b = binary.AppendVarint(w.b, v.Int())
	case k >= reflect.Uint && k <= reflect.Uint64:
		w.put(v.Uint())
	case k == reflect.Float32, k == reflect.Float64:
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v.Float()))
	case k == reflect.String:
		w.b = append(binary.AppendUvarint(w.b, uint64(v.Len())), v.String()...)
	case k == reflect.Pointer:
		if w.put(bit(!v.IsNil())); !v.IsNil() {
			s.elem.encode(w, v.Elem())
		}
	case k == reflect.Slice:
		w.put(uint64(v.Len()) + bit(!v.IsNil())) // 0 is nil, which DeepEqual tells from empty
		fallthrough
	case k == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			s.elem.encode(w, v.Index(i))
		}
	case k == reflect.Struct:
		for i, sub := range s.subs {
			sub.encode(w, v.Field(i))
		}
	}
}

// decode reads r's next value into v, which must be settable.
func (s *shape) decode(r *record, v reflect.Value) {
	switch k := s.kind; {
	case s.self:
		blob := r.next(r.uvarint())
		r.check(r.err != nil || v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(blob) == nil)
	case k == reflect.Bool, k == reflect.Pointer:
		n := r.uvarint()
		if r.check(n <= 1); k == reflect.Bool {
			v.SetBool(n == 1)
		} else if n == 0 {
			v.SetZero()
		} else {
			v.Set(reflect.New(v.Type().Elem()))
			s.elem.decode(r, v.Elem())
		}
	case k >= reflect.Int && k <= reflect.Int64:
		n := r.uvarint()
		x := int64(n>>1) ^ -int64(n&1) // binary.Varint's zigzag
		r.check(!v.OverflowInt(x))
		v.SetInt(x)
	case k >= reflect.Uint && k <= reflect.Uint64:
		n := r.uvarint()
		r.check(!v.OverflowUint(n))
		v.SetUint(n)
	case k == reflect.Float32, k == reflect.Float64:
		if b := r.next(8); b != nil {
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	case k == reflect.String:
		v.SetString(string(r.next(r.uvarint())))
	case k == reflect.Slice:
		n := r.uvarint()
		if n == 0 || !r.check(n-1 <= uint64(len(r.b)/s.elem.min)) {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), int(n-1), int(n-1)))
		fallthrough
	case k == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			s.elem.decode(r, v.Index(i))
		}
	case k == reflect.Struct:
		for i, sub := range s.subs {
			sub.decode(r, v.Field(i))
		}
	}
}
