// Coordinator-facing frames (DESIGN.md §12). Two message types extend the
// protocol for the managed fleet topology:
//
//   - TSnapshot is the pull direction of the paper's §2 aggregation tree:
//     where SnapshotMerge pushes a marshalled sketch INTO a server, Snapshot
//     asks a server to hand its current statement state OUT, so a
//     coordinator can fan a merge in from N leaves without every leaf
//     having to know its parent. A coordinator answers the same RPC with
//     its merged fleet state, which is what makes coordinators stackable
//     into deeper trees.
//   - TCluster reports a coordinator's membership view: one record per
//     leaf with its liveness state, recovery epoch, route share, and
//     journal/acknowledgement offsets. Leaf servers do not implement it.
package proto

import (
	"fmt"

	"implicate/internal/wire"
)

// SnapshotReq asks for the marshalled estimator state of one registered
// statement.
type SnapshotReq struct {
	Stmt uint32
}

// Encode serializes the request payload.
func (q SnapshotReq) Encode() []byte {
	e := wire.NewEncoder(4)
	e.U32(q.Stmt)
	return e.Bytes()
}

// DecodeSnapshotReq parses a TSnapshot payload.
func DecodeSnapshotReq(data []byte) (SnapshotReq, error) {
	d := wire.NewDecoder(data)
	q := SnapshotReq{Stmt: d.U32()}
	if err := d.Done(); err != nil {
		return SnapshotReq{}, fmt.Errorf("proto: snapshot request: %w", err)
	}
	return q, nil
}

// SnapshotResult carries one statement's marshalled estimator state and the
// engine's applied-tuple count at the moment of the marshal — the offset a
// coordinator compares against its journal to know the snapshot covers
// everything it has shipped.
type SnapshotResult struct {
	// Tuples is the engine's applied-tuple total when the state was
	// captured.
	Tuples int64
	// Kind is the snapshot-registry name of the estimator ("nips", ...).
	Kind string
	// Sketch is the estimator's MarshalBinary form, merge-compatible with
	// the SnapshotMerge RPC's request payload.
	Sketch []byte
}

// maxKindLen bounds an estimator kind name on the wire.
const maxKindLen = 64

// Encode serializes the result payload.
func (r SnapshotResult) Encode() []byte {
	e := wire.NewEncoder(16 + len(r.Kind) + len(r.Sketch))
	e.I64(r.Tuples)
	e.Str(r.Kind)
	e.Blob(r.Sketch)
	return e.Bytes()
}

// DecodeSnapshotResult parses a TResult payload of a snapshot pull. The
// sketch bytes alias data.
func DecodeSnapshotResult(data []byte) (SnapshotResult, error) {
	d := wire.NewDecoder(data)
	r := SnapshotResult{Tuples: d.I64(), Kind: d.Str(maxKindLen), Sketch: d.Blob(MaxFrame)}
	if err := d.Done(); err != nil {
		return SnapshotResult{}, fmt.Errorf("proto: snapshot result: %w", err)
	}
	return r, nil
}

// Leaf liveness states carried in LeafStatus.State. The values are wire
// constants; the coord package maps them to its own state machine.
const (
	LeafUp         = 0
	LeafDown       = 1
	LeafRecovering = 2
)

// LeafStatus is one leaf's row in a coordinator's membership view.
type LeafStatus struct {
	// Addr is the leaf's current ingest address (it may change across a
	// recovery when the restart hook rebinds).
	Addr string
	// State is the liveness state (LeafUp, LeafDown, LeafRecovering).
	State uint8
	// Epoch counts completed recoveries: 0 for a leaf that has never died.
	Epoch uint64
	// Parts is how many of the route table's bitmaps the leaf owns.
	Parts uint32
	// Journaled is the tuple count the coordinator has routed to this leaf
	// (the journal total, including batches not yet delivered).
	Journaled int64
	// Acked is the tuple count the leaf has acknowledged as enqueued.
	Acked int64
}

// ClusterStatus is a coordinator's answer to TCluster.
type ClusterStatus struct {
	// VirtualPartitions is the route table's size: the leaves' bitmap count.
	VirtualPartitions uint32
	// Leaves holds one status per configured leaf, in route-table order.
	Leaves []LeafStatus
}

// maxLeafAddrLen bounds one leaf address string; maxClusterLeaves bounds
// the fleet size a status reply may claim before any allocation.
const (
	maxLeafAddrLen   = 256
	maxClusterLeaves = 1 << 16
)

// Encode serializes the cluster status payload.
func (c ClusterStatus) Encode() []byte {
	e := wire.NewEncoder(8 + len(c.Leaves)*48)
	e.U32(c.VirtualPartitions)
	e.U32(uint32(len(c.Leaves)))
	for _, l := range c.Leaves {
		e.Str(l.Addr)
		e.U8(l.State)
		e.U64(l.Epoch)
		e.U32(l.Parts)
		e.I64(l.Journaled)
		e.I64(l.Acked)
	}
	return e.Bytes()
}

// DecodeClusterStatus parses a TResult payload of a cluster poll.
func DecodeClusterStatus(data []byte) (ClusterStatus, error) {
	d := wire.NewDecoder(data)
	c := ClusterStatus{VirtualPartitions: d.U32()}
	n := d.U32()
	if d.Err() == nil && n > maxClusterLeaves {
		return ClusterStatus{}, fmt.Errorf("proto: cluster status: %w: %d leaves", wire.ErrCorrupt, n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		c.Leaves = append(c.Leaves, LeafStatus{
			Addr:      d.Str(maxLeafAddrLen),
			State:     d.U8(),
			Epoch:     d.U64(),
			Parts:     d.U32(),
			Journaled: d.I64(),
			Acked:     d.I64(),
		})
	}
	if err := d.Done(); err != nil {
		return ClusterStatus{}, fmt.Errorf("proto: cluster status: %w", err)
	}
	return c, nil
}
