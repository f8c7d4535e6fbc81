// Package stream models the data-stream relation of §3: a schema of named
// attributes, tuples over that schema, compiled projections onto attribute
// subsets (the itemsets of §3.1), and sources/sinks for feeding tuples to
// the estimators with constant per-tuple work.
package stream

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// KeySep separates attribute values inside an encoded itemset key. It is the
// ASCII unit separator, which the codec forbids inside values.
const KeySep = '\x1f'

// Schema describes the ordered attributes of a stream relation.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Names must be non-empty
// and unique.
func NewSchema(names ...string) (*Schema, error) {
	if len(names) == 0 {
		return nil, errors.New("stream: schema needs at least one attribute")
	}
	s := &Schema{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("stream: attribute %d has an empty name", i)
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("stream: duplicate attribute %q", n)
		}
		s.index[n] = i
	}
	return s, nil
}

// MustSchema is NewSchema for statically known attribute lists; it panics on
// error.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.names) }

// Names returns a copy of the attribute names in schema order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Tuple is one stream record; values are positional with respect to the
// schema it was read under.
type Tuple []string

// Proj is a compiled projection of a tuple onto a subset of attributes — the
// itemset operator π_A(t) of §3.1. Compiling once keeps the per-tuple cost
// at a few index loads.
type Proj struct {
	idx   []int
	attrs []string
}

// Proj compiles a projection onto the named attributes, in the given order.
func (s *Schema) Proj(attrs ...string) (Proj, error) {
	if len(attrs) == 0 {
		return Proj{}, errors.New("stream: projection needs at least one attribute")
	}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := s.index[a]
		if !ok {
			return Proj{}, fmt.Errorf("stream: unknown attribute %q", a)
		}
		idx[i] = j
	}
	return Proj{idx: idx, attrs: append([]string(nil), attrs...)}, nil
}

// MustProj is Proj for statically known attribute lists; it panics on error.
func (s *Schema) MustProj(attrs ...string) Proj {
	p, err := s.Proj(attrs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Attrs returns the attribute names the projection covers.
func (p Proj) Attrs() []string { return append([]string(nil), p.attrs...) }

// Arity returns the number of projected attributes.
func (p Proj) Arity() int { return len(p.idx) }

// Single reports the tuple index of a one-attribute projection. Such a
// projection's key is the attribute value itself (no separator, no
// assembly), which lets hot planning loops use the tuple's string without
// copying.
func (p Proj) Single() (int, bool) {
	if len(p.idx) == 1 {
		return p.idx[0], true
	}
	return -1, false
}

// Key encodes the projection of t as an itemset key. Keys of equal itemsets
// compare equal; distinct itemsets yield distinct keys because values may
// not contain the separator.
func (p Proj) Key(t Tuple) string {
	if len(p.idx) == 1 {
		return t[p.idx[0]]
	}
	n := len(p.idx) - 1
	for _, i := range p.idx {
		n += len(t[i])
	}
	var b strings.Builder
	b.Grow(n)
	for k, i := range p.idx {
		if k > 0 {
			b.WriteByte(KeySep)
		}
		b.WriteString(t[i])
	}
	return b.String()
}

// AppendKey appends the encoded itemset to dst and returns the extended
// slice; it lets hot loops reuse one buffer across tuples.
func (p Proj) AppendKey(dst []byte, t Tuple) []byte {
	for k, i := range p.idx {
		if k > 0 {
			dst = append(dst, KeySep)
		}
		dst = append(dst, t[i]...)
	}
	return dst
}

// AppendKeySpans is AppendKey over an undecoded record: value i of the
// record is data[spans[i].Off:spans[i].End] (see RecordSpans). The appended
// bytes equal AppendKey's for the decoded tuple.
func (p Proj) AppendKeySpans(dst, data []byte, spans []Span) []byte {
	for k, i := range p.idx {
		if k > 0 {
			dst = append(dst, KeySep)
		}
		dst = append(dst, data[spans[i].Off:spans[i].End]...)
	}
	return dst
}

// Values returns the projected attribute values.
func (p Proj) Values(t Tuple) []string {
	out := make([]string, len(p.idx))
	for k, i := range p.idx {
		out[k] = t[i]
	}
	return out
}

// SplitKey decodes an itemset key produced by Key back into its values.
func SplitKey(key string) []string {
	return strings.Split(key, string(rune(KeySep)))
}

// JoinKey encodes attribute values into an itemset key, the inverse of
// SplitKey.
func JoinKey(values ...string) string {
	return strings.Join(values, string(rune(KeySep)))
}

// Source yields tuples until io.EOF.
type Source interface {
	// Next returns the next tuple. It returns io.EOF after the last tuple.
	// The returned tuple is only valid until the following call.
	Next() (Tuple, error)
}

// Sink consumes tuples.
type Sink interface {
	Write(Tuple) error
}

// MemSource replays an in-memory tuple slice.
type MemSource struct {
	tuples []Tuple
	pos    int
}

// NewMemSource returns a Source over the given tuples.
func NewMemSource(tuples []Tuple) *MemSource { return &MemSource{tuples: tuples} }

// Next implements Source.
func (m *MemSource) Next() (Tuple, error) {
	if m.pos >= len(m.tuples) {
		return nil, io.EOF
	}
	t := m.tuples[m.pos]
	m.pos++
	return t, nil
}

// Reset rewinds the source to the first tuple.
func (m *MemSource) Reset() { m.pos = 0 }

// MemSink collects tuples in memory.
type MemSink struct {
	Tuples []Tuple
}

// Write implements Sink.
func (m *MemSink) Write(t Tuple) error {
	m.Tuples = append(m.Tuples, append(Tuple(nil), t...))
	return nil
}

// Each drains src, calling fn for every tuple, and returns the number of
// tuples seen. It stops early if fn returns an error.
func Each(src Source, fn func(Tuple) error) (int64, error) {
	var n int64
	for {
		t, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if err := fn(t); err != nil {
			return n, err
		}
	}
}
