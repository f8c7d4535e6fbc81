package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"implicate/internal/imps"
	"implicate/internal/wire"
)

// Binary serialization for sketches, so constrained nodes can checkpoint
// their state or ship it upstream for merging (§2's distributed
// aggregation). The format is versioned and self-describing; a sketch
// restored with UnmarshalBinary continues streaming exactly where it left
// off.

const marshalMagic = "NIPS\x01"

// ErrCorrupt is returned by UnmarshalSketch for malformed input. It is
// wire.ErrCorrupt: the sketch codec is built on internal/wire like every
// other format.
var ErrCorrupt = wire.ErrCorrupt

// MarshalBinary encodes the complete sketch state under every stripe lock,
// a serializable cut that includes every Add that returned before the call.
// The stripe count is not encoded.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	s.lockAll()
	defer s.unlockAll()
	c := s.counts()
	e := wire.NewEncoder(4096)
	e.Raw([]byte(marshalMagic))

	e.U32(uint32(s.cond.MaxMultiplicity))
	e.I64(s.cond.MinSupport)
	e.U32(uint32(s.cond.TopC))
	e.F64(s.cond.MinTopConfidence)

	e.U32(uint32(s.opts.Bitmaps))
	e.U32(uint32(s.opts.FringeSize))
	e.Bool(s.opts.Unbounded)
	e.U32(uint32(s.opts.Slack))
	e.U64(s.opts.Seed)

	e.I64(c.tuples)
	e.I64(int64(c.peak))

	for bi := range s.bms {
		b := &s.bms[bi]
		e.I64(int64(b.lo))
		e.I64(int64(b.hi))
		e.I64(int64(b.overflows))
		e.U64(packBits(&b.value))
		e.U64(packBits(&b.supped))
		e.U64(packBits(&b.touched))
		e.U64(packBits(&b.dead))
		ncells := 0
		for _, c := range b.cells {
			if c != nil {
				ncells++
			}
		}
		e.U32(uint32(ncells))
		for ci, c := range b.cells {
			if c == nil {
				continue
			}
			e.U8(uint8(ci))
			e.Bool(c.suppOnly)
			e.U32(uint32(len(c.items)))
			for j := range c.items {
				it := &c.items[j]
				e.U64(it.ah)
				st := &it.st
				switch {
				case st.excluded:
					e.U8(2) // tombstone
					continue
				case st.doomed:
					e.U8(1)
				default:
					e.U8(0)
				}
				e.I64(st.supp)
				if st.doomed || st.perB == nil {
					e.U32(0)
					continue
				}
				e.U32(uint32(len(st.perB)))
				for _, pe := range st.perB {
					e.U64(pe.h)
					e.I64(pe.n)
				}
			}
		}
	}
	return e.Bytes(), nil
}

func packBits(bits *[Levels]bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func unpackBits(v uint64, bits *[Levels]bool) {
	for i := range bits {
		bits[i] = v>>uint(i)&1 == 1
	}
}

// decodeHeader reads the conditions and options that open every sketch
// encoding.
func decodeHeader(d *wire.Decoder) (imps.Conditions, Options) {
	cond := imps.Conditions{MaxMultiplicity: int(d.U32()), MinSupport: d.I64(), TopC: int(d.U32()), MinTopConfidence: d.F64()}
	if cond.MaxMultiplicity > 1<<24 || cond.TopC > 1<<24 {
		d.Failf("implausible conditions %s", cond)
	}
	opts := Options{Bitmaps: int(d.U32()), FringeSize: int(d.U32()), Unbounded: d.Bool(), Slack: int(d.U32()), Seed: d.U64()}
	return cond, opts
}

// UnmarshalSketch decodes a sketch previously encoded with MarshalBinary
// into a one-stripe sketch.
func UnmarshalSketch(data []byte) (*Sketch, error) { return unmarshalSketch(data, false) }

// unmarshalSketch decodes a NIPS\x01 encoding into a sketch with one
// stripe, or with severalShards when several is set, booking its counts on
// stripe 0.
func unmarshalSketch(data []byte, several bool) (*Sketch, error) {
	d := wire.NewDecoder(data)
	d.Magic(marshalMagic)
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	cond, opts := decodeHeader(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	shards := 1
	if several {
		shards = severalShards(opts.Bitmaps)
	}
	s, err := NewShardedSketch(cond, opts, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	tuples, peak := d.I64(), int(d.I64())
	if tuples < 0 || peak < 0 {
		return nil, ErrCorrupt
	}

	for bi := range s.bms {
		b := &s.bms[bi]
		b.lo = int(d.I64())
		b.hi = int(d.I64())
		b.overflows = int(d.I64())
		if d.Err() != nil || b.lo < 0 || b.lo > Levels || b.hi < -1 || b.hi >= Levels {
			return nil, ErrCorrupt
		}
		unpackBits(d.U64(), &b.value)
		unpackBits(d.U64(), &b.supped)
		unpackBits(d.U64(), &b.touched)
		unpackBits(d.U64(), &b.dead)
		ncells := int(d.U32())
		if d.Err() != nil || ncells > Levels {
			return nil, ErrCorrupt
		}
		for k := 0; k < ncells; k++ {
			ci := int(d.U8())
			if d.Err() != nil || ci >= Levels || b.cells[ci] != nil {
				return nil, ErrCorrupt
			}
			c := &cell{suppOnly: d.Bool()}
			// Every item occupies at least 9 encoded bytes; Count rejects
			// lengths the remaining input cannot satisfy before any
			// allocation is sized by them.
			nitems := d.Count(9)
			if d.Err() != nil {
				return nil, d.Err()
			}
			c.items = make([]item, 0, nitems)
			for itn := 0; itn < nitems; itn++ {
				ah := d.U64()
				if c.find(ah) >= 0 {
					return nil, ErrCorrupt
				}
				switch kind := d.U8(); kind {
				case 2:
					c.items = append(c.items, item{ah: ah, st: aState{excluded: true}})
				case 0, 1:
					st := aState{doomed: kind == 1, supp: d.I64()}
					npairs := d.Count(16)
					if st.doomed && npairs > 0 {
						return nil, ErrCorrupt // a doomed itemset holds no pair counters
					}
					if npairs > 0 {
						st.perB = make(pairSet, 0, npairs)
						for p := 0; p < npairs; p++ {
							bh := d.U64()
							n := d.I64()
							if st.perB.find(bh) >= 0 {
								return nil, ErrCorrupt
							}
							st.perB.add(bh, n)
						}
					}
					c.items = append(c.items, item{ah: ah, st: st})
				default:
					return nil, ErrCorrupt
				}
				if d.Err() != nil {
					return nil, d.Err()
				}
			}
			b.cells[ci] = c
			s.recountCell(c)
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	s.rebook(tuples, peak)
	return s, nil
}

// shardedMagic tags the sharded encoding of earlier builds. It is
// decode-only: checkpoints outlive the build that wrote them (DESIGN §8).
const shardedMagic = "NIPS\x02"

// UnmarshalShardedSketch decodes a sketch with several lock stripes from
// its MarshalBinary bytes (NIPS\x01) or from an earlier build's NIPS\x02
// encoding. The result has severalShards stripes and continues streaming
// bit-identically to the original at any stripe count above one.
func UnmarshalShardedSketch(data []byte) (*Sketch, error) {
	if bytes.HasPrefix(data, []byte(shardedMagic)) {
		return unmarshalNIPS2(data)
	}
	return unmarshalSketch(data, true)
}

// severalShards is the stripe count a sketch of m bitmaps that had several
// stripes restores at: the default count, but at least two, so that the
// restored sketch keeps the peak rule of several stripes (see counts) at
// every GOMAXPROCS.
func severalShards(m int) int { return min(max(2, procShards()), m) }

// unmarshalNIPS2 decodes the sharded encoding — the global conditions and
// options, a shard count n, then each shard's length-prefixed NIPS\x01
// sub-sketch of m/n bitmaps — into the one global-index Sketch it describes:
// shard s's local bitmap j is global bitmap j<<log2(n) | s. Tuple counts
// add up; the shards' high-water marks do not, so the peak is the live
// entry count.
func unmarshalNIPS2(data []byte) (*Sketch, error) {
	d := wire.NewDecoder(data)
	d.Magic(shardedMagic)
	cond, opts := decodeHeader(d)
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	sk, err := NewShardedSketch(cond, opts, severalShards(opts.Bitmaps))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n < 1 || n&(n-1) != 0 || n > len(sk.bms) {
		return nil, fmt.Errorf("%w: shard count %d", ErrCorrupt, n)
	}
	shift := bits.TrailingZeros(uint(n))
	want := sk.opts
	want.Bitmaps /= n
	var tuples int64
	for s := 0; s < n; s++ {
		blob := d.Blob(len(data))
		if err := d.Err(); err != nil {
			return nil, err
		}
		sub, err := UnmarshalSketch(blob)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if sub.cond != sk.cond || sub.opts != want || sub.Tuples() > math.MaxInt64-tuples {
			return nil, fmt.Errorf("%w: shard %d does not match the header", ErrCorrupt, s)
		}
		for j := range sub.bms {
			sk.bms[j<<shift|s] = sub.bms[j]
		}
		tuples += sub.Tuples()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	sk.rebook(tuples, 0)
	return sk, nil
}
