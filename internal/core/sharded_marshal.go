package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"implicate/internal/wire"
)

// shardedMagic tags the sharded encoding of earlier builds. It is
// decode-only: checkpoints outlive the build that wrote them (DESIGN §8).
const shardedMagic = "NIPS\x02"

// UnmarshalShardedSketch decodes a sharded sketch from its MarshalBinary
// bytes (NIPS\x01) or from an earlier build's NIPS\x02 encoding. The shard
// count is not part of the state: the result has the constructor's default
// count and continues streaming bit-identically to the original.
func UnmarshalShardedSketch(data []byte) (*ShardedSketch, error) {
	decode := UnmarshalSketch
	if bytes.HasPrefix(data, []byte(shardedMagic)) {
		decode = unmarshalNIPS2
	}
	sk, err := decode(data)
	if err != nil {
		return nil, err
	}
	return stripeSketch(sk, 0)
}

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
	sk, err := NewSketch(cond, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n < 1 || n&(n-1) != 0 || n > len(sk.bms) {
		return nil, fmt.Errorf("%w: shard count %d", ErrCorrupt, n)
	}
	shift := bits.TrailingZeros(uint(n))
	want := sk.opts
	want.Bitmaps /= n
	for s := 0; s < n; s++ {
		blob := d.Blob(len(data))
		if err := d.Err(); err != nil {
			return nil, err
		}
		sub, err := UnmarshalSketch(blob)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if sub.cond != sk.cond || sub.opts != want || sub.tuples > math.MaxInt64-sk.tuples {
			return nil, fmt.Errorf("%w: shard %d does not match the header", ErrCorrupt, s)
		}
		for j := range sub.bms {
			sk.bms[j<<shift|s] = sub.bms[j]
		}
		sk.tuples += sub.tuples
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	sk.recountEntries()
	return sk, nil
}
