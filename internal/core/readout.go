package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A readout is what a sketch's readers need of it and nothing more: one
// small fixed-size record per bitmap, holding that bitmap's terms of the
// estimator folds (sketch.go). Sketches that split one stream by BitmapOf
// observe disjoint bitmaps, so their records placed side by side are the
// terms of the sketch Merge would build from them, and a Readout folds them
// with the readers' own code: every answer is bit-identical to the merged
// sketch's, without shipping, decoding or merging a single cell. This is the
// fleet coordinator's query path (DESIGN.md §12).

// ReadoutRecordLen is the encoded size of one readout record:
//
//	u32 bitmap index
//	u8  lo, u8 hi (two's complement: 0xff is -1, a bitmap never hashed into)
//	u64 dead-cell mask over [lo, hi] (bit j for cell j, zero elsewhere)
//	u64 implication census
//	u8  R position ×3 (supported, non-implication, hashed)
//	u64 tracked supported itemsets, u64 sum of their B-partner counts
//
// all little-endian.
const ReadoutRecordLen = 4 + 2 + 8 + 8 + int(numPositions) + 8 + 8

// ErrOverlap is returned by Readout.Place for a record whose bitmap already
// holds one: the sources observed that bitmap both, so their terms do not
// add up to the merged sketch's and only Merge can combine them.
var ErrOverlap = errors.New("core: readout records overlap")

// record is one bitmap's terms.
type record struct {
	lo, hi int
	dead   uint64
	census int64
	pos    [numPositions]uint8
	n, sum int64
	placed bool
}

// pristineRecord is the terms of a bitmap that never observed a tuple.
var pristineRecord = record{hi: -1}

// AppendReadout appends to dst one ReadoutRecordLen-byte record, in index
// order, for every bitmap whose terms are not a pristine bitmap's — every
// bitmap that observed a tuple, and only those. It reads under every stripe
// lock, a serializable cut like MarshalBinary's.
func (s *Sketch) AppendReadout(dst []byte) []byte {
	s.lockAll()
	defer s.unlockAll()
	for i := range s.bms {
		var r record
		r.lo, r.hi, r.dead, r.census = s.fringe(i)
		for k, read := range positionOf {
			r.pos[k] = uint8(read(&s.bms[i]))
		}
		r.n, r.sum = s.multiplicityOf(&s.bms[i])
		if r != pristineRecord {
			dst = r.append(dst, i)
		}
	}
	return dst
}

func (r *record) append(dst []byte, idx int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
	dst = append(dst, uint8(r.lo), uint8(int8(r.hi)))
	dst = binary.LittleEndian.AppendUint64(dst, r.dead)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.census))
	dst = append(dst, r.pos[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.n))
	return binary.LittleEndian.AppendUint64(dst, uint64(r.sum))
}

// decodeRecord parses one record, refusing any field no sketch state can
// produce, so a record that decodes re-encodes to the same bytes.
func decodeRecord(b []byte, m int) (int, record, error) {
	idx := int(binary.LittleEndian.Uint32(b))
	r := record{
		lo:     int(b[4]),
		hi:     int(int8(b[5])),
		dead:   binary.LittleEndian.Uint64(b[6:]),
		census: int64(binary.LittleEndian.Uint64(b[14:])),
		n:      int64(binary.LittleEndian.Uint64(b[25:])),
		sum:    int64(binary.LittleEndian.Uint64(b[33:])),
		placed: true,
	}
	copy(r.pos[:], b[22:25])
	var span uint64 // the mask of cells [lo, hi]
	if r.lo <= r.hi {
		span = (^uint64(0) >> uint(Levels-1-r.hi)) &^ (1<<uint(r.lo) - 1)
	}
	switch {
	case idx >= m:
		return 0, record{}, fmt.Errorf("%w: readout record for bitmap %d of %d", ErrCorrupt, idx, m)
	case r.lo > Levels || r.hi < -1 || r.hi >= Levels || r.dead&^span != 0:
		return 0, record{}, fmt.Errorf("%w: readout record for bitmap %d has fringe [%d,%d] dead %#x", ErrCorrupt, idx, r.lo, r.hi, r.dead)
	case r.census < 0 || r.n < 0 || r.sum < 0:
		return 0, record{}, fmt.Errorf("%w: readout record for bitmap %d has a negative count", ErrCorrupt, idx)
	}
	for _, p := range r.pos {
		if p > Levels {
			return 0, record{}, fmt.Errorf("%w: readout record for bitmap %d has position %d", ErrCorrupt, idx, p)
		}
	}
	return idx, r, nil
}

// Readout is the read-only image of a sketch of m bitmaps, assembled from
// the records Sketch.AppendReadout writes. A slot no record was placed in
// reads as a pristine bitmap. It answers the Sketch readers named below
// with the Sketch's own code, so a Readout holding the records of sketches
// that observed disjoint bitmaps answers bit for bit what their Merge
// would. It is not safe for concurrent use.
type Readout struct {
	recs []record
}

// NewReadout returns a readout of m pristine bitmaps; m must be a valid
// bitmap count.
func NewReadout(m int) (*Readout, error) {
	if m < 1 || m > maxBitmaps || m&(m-1) != 0 {
		return nil, fmt.Errorf("core: readout of %d bitmaps: the count must be a power of two in [1,%d]", m, maxBitmaps)
	}
	r := &Readout{recs: make([]record, m)}
	for i := range r.recs {
		r.recs[i] = pristineRecord
	}
	return r, nil
}

// maxBitmaps is the largest bitmap count a sketch accepts (xhash.NewRouter).
const maxBitmaps = 1 << 16

// Place puts each record of recs, a concatenation of whole records as
// AppendReadout writes them, into its bitmap's slot. It refuses malformed
// input with ErrCorrupt and a record for a bitmap that already holds one
// with ErrOverlap; after an error the readout must not be read.
func (r *Readout) Place(recs []byte) error {
	if len(recs)%ReadoutRecordLen != 0 {
		return fmt.Errorf("%w: %d readout bytes are not whole %d-byte records", ErrCorrupt, len(recs), ReadoutRecordLen)
	}
	for off := 0; off < len(recs); off += ReadoutRecordLen {
		idx, rec, err := decodeRecord(recs[off:off+ReadoutRecordLen], len(r.recs))
		if err != nil {
			return err
		}
		if r.recs[idx].placed {
			return fmt.Errorf("%w: bitmap %d", ErrOverlap, idx)
		}
		r.recs[idx] = rec
	}
	return nil
}

// Bitmaps returns m, the readout's bitmap count.
func (r *Readout) Bitmaps() int { return len(r.recs) }

// AppendReadout is Sketch.AppendReadout: it appends every placed record to
// dst, in index order, as the bytes it was placed from — so a readout
// assembled from disjoint sketches re-emits what their Merge would.
func (r *Readout) AppendReadout(dst []byte) []byte {
	for i := range r.recs {
		if r.recs[i].placed {
			dst = r.recs[i].append(dst, i)
		}
	}
	return dst
}

// ImplicationCount is Sketch.ImplicationCount.
func (r *Readout) ImplicationCount() float64 { return implicationCount(r) }

// ImplicationCountInterval is Sketch.ImplicationCountInterval.
func (r *Readout) ImplicationCountInterval(z float64) (lo, hi float64) {
	return implicationCountInterval(r, z)
}

// NonImplicationCount is Sketch.NonImplicationCount.
func (r *Readout) NonImplicationCount() float64 { return nonImplicationCount(r) }

// SupportedDistinct is Sketch.SupportedDistinct.
func (r *Readout) SupportedDistinct() float64 { return supportedDistinct(r) }

// DistinctCount is Sketch.DistinctCount.
func (r *Readout) DistinctCount() float64 { return distinctCount(r) }

// AvgMultiplicity is Sketch.AvgMultiplicity.
func (r *Readout) AvgMultiplicity() float64 { return avgMultiplicity(r) }

func (r *Readout) bitmaps() int { return len(r.recs) }

func (r *Readout) fringe(i int) (lo, hi int, dead uint64, census int64) {
	rec := &r.recs[i]
	return rec.lo, rec.hi, rec.dead, rec.census
}

func (r *Readout) positionSum(k position) (sum int) {
	for i := range r.recs {
		sum += int(r.recs[i].pos[k])
	}
	return sum
}

func (r *Readout) multiplicity() (n, sum int64) {
	for i := range r.recs {
		n += r.recs[i].n
		sum += r.recs[i].sum
	}
	return n, sum
}
