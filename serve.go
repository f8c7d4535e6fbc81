package implicate

import (
	"implicate/internal/client"
	"implicate/internal/coord"
	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/server"
	"implicate/internal/telemetry"
)

// Serving layer (DESIGN.md §9): the paper's §2 deployment is distributed —
// leaf nodes sketch their local streams and ship state upstream — and this
// is its wire. Serve starts a TCP server speaking a length-prefixed,
// CRC-tagged binary protocol whose RPCs are IngestBatch (remote tuple
// feed through a bounded queue with explicit backpressure), Query (read a
// registered statement's count), SnapshotMerge (merge a leaf's marshalled
// sketch into an aggregator — the §2 tree over a real network), Stats
// (runtime telemetry), Health (per-statement estimator introspection) and
// Trace (the server's span ring). Dial returns a pooled, pipelining
// client. The cmd/impserved command wraps Serve for standalone deployment,
// and ServeAdmin adds the HTTP admin endpoint (/metrics, /healthz,
// /trace, pprof) described in DESIGN.md §10.

// Server is a running ingest/query server; see Serve.
type Server = server.Server

// ServerConfig configures Serve: the listen address, the schema ingest
// batches must match, the engine with its registered statements, the
// ingest-queue bound, the ingest pipeline's worker-pool size (Workers;
// 0 picks GOMAXPROCS — results are bit-identical at any size, see
// DESIGN.md §7), and optional checkpointing (path + interval) for crash
// recovery via the replay contract of DESIGN.md §8.
type ServerConfig = server.Config

// Client is a connection pool to one server; see Dial.
type Client = client.Client

// ClientOptions tune a client: pool size, deadlines, and the retry/backoff
// budgets for backpressure and idempotent requests.
type ClientOptions = client.Options

// ServerStats is a frozen telemetry snapshot: tuples ingested, batches
// accepted and refused, merges, ingest-queue high-water mark, and per-RPC
// latency histograms.
type ServerStats = telemetry.Snapshot

// QueryResult is a Client.Query answer: the statement's current count and
// the server engine's applied-tuple total at the time of the read.
type QueryResult = proto.QueryResult

// HealthReport is one statement's estimator-health introspection record:
// memory footprint, bitmap fill, fringe occupancy and eviction counts, and
// the estimator's self-assessed relative error. Client.Health returns one
// per registered statement.
type HealthReport = imps.HealthReport

// TraceSpan is one event from the server's span ring — a planned batch, a
// dispatched batch, a worker apply, a merge, a checkpoint or a handled RPC,
// with wall times and per-kind attribution. Client.Trace returns the ring's
// recent spans when the server runs with ServerConfig.TraceSpans > 0.
type TraceSpan = obs.Span

// AdminServer is a running admin HTTP endpoint; see ServeAdmin.
type AdminServer = obs.AdminServer

// ErrBackpressure is returned by Client.IngestBatch when the server kept
// refusing the batch for longer than the client's retry budget. The batch
// was never enqueued; retrying later is safe.
var ErrBackpressure = client.ErrBackpressure

// Serve starts an ingest/query server for cfg.Engine on cfg.Addr. The
// engine must have its statements registered already and belongs to the
// server until Close returns. Close drains the ingest queue and, when
// checkpointing is configured, writes a final checkpoint — a batch the
// server acknowledged is never lost to a graceful shutdown.
func Serve(cfg ServerConfig) (*Server, error) { return server.Listen(cfg) }

// Dial connects to an impserved server. schema is required for
// IngestBatch and may be nil for query/merge/stats-only clients. The
// returned client pipelines requests over a small connection pool, retries
// backpressure replies with exponential backoff, and retries idempotent
// requests (Query, Stats, Health, Trace) across redials.
func Dial(addr string, schema *Schema, opt ClientOptions) (*Client, error) {
	return client.Dial(addr, schema, opt)
}

// ServeAdmin starts the HTTP admin endpoint for a running server:
// Prometheus-text /metrics, /healthz, a JSON /trace span dump, and the
// pprof suite under /debug/pprof/. The endpoint is unauthenticated — bind
// it to loopback or an operations network, never the ingest address.
// Close the returned AdminServer before (or after) closing srv; the two
// are independent.
func ServeAdmin(addr string, srv *Server) (*AdminServer, error) {
	return obs.ListenAdmin(addr, srv)
}

// Coordinator fronts a fleet of impserved leaves (DESIGN.md §12): it
// routes every ingested tuple to exactly one leaf through an immutable
// partition table, journals and delivers batches in order per leaf, tracks
// liveness with health probes, recovers a crashed leaf from its checkpoint
// before re-admitting it, and answers queries from the merged fleet state.
// With a fixed configuration and tuple sequence the fleet's answer is
// bit-identical whether or not leaves crashed along the way. Create with
// NewCoordinator.
type Coordinator = coord.Coordinator

// CoordinatorConfig configures NewCoordinator: the shared schema, the
// statements the fleet serves, the leaf specs (stable name + current
// address), and the routing, batching, probing and recovery tuning.
type CoordinatorConfig = coord.Config

// LeafSpec names one fleet member: a stable name (the route-table
// identity, surviving restarts and address changes) and its current
// address.
type LeafSpec = coord.LeafSpec

// CoordinatorFrontend serves a Coordinator over the same wire protocol an
// impserved leaf speaks, so producers, queriers and parent coordinators
// talk to the fleet exactly as they would to one server. Create with
// ServeCoordinator.
type CoordinatorFrontend = coord.Frontend

// ClusterStatus is a Coordinator's membership view: the route-table size
// and one LeafStatus per fleet member.
type ClusterStatus = proto.ClusterStatus

// LeafStatus is one fleet member's row in a ClusterStatus: address,
// liveness state, recovery epoch, partitions owned, and journal and
// delivery watermarks.
type LeafStatus = proto.LeafStatus

// SnapshotResult is a marshalled estimator pulled through the Snapshot
// RPC: the applied-tuple watermark, the estimator kind, and the sketch
// bytes, ready to merge upstream.
type SnapshotResult = proto.SnapshotResult

// NewCoordinator validates cfg, dials every leaf eagerly, and starts the
// per-leaf feeders and health probers. Close releases them; call Flush
// first for a clean handoff.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return coord.New(cfg) }

// FleetSpan is one span of an assembled cross-node fleet trace: the node
// that recorded it ("coord", or a leaf's configured name) plus the span
// itself. Client.FleetTrace returns these.
type FleetSpan = obs.FleetSpan

// FleetJSON is the coordinator admin endpoint's /fleet document: the
// coordinator's own throughput plus one merged observability row per leaf.
// imptop's coordinator mode decodes it.
type FleetJSON = obs.FleetJSON

// FleetLeafJSON is one leaf's merged row in a FleetJSON document.
type FleetLeafJSON = obs.FleetLeafJSON

// ServeCoordinatorAdmin starts the coordinator's admin HTTP endpoint:
// three-layer Prometheus /metrics (the coordinator's own counters, the
// coordinator-side imps_coord_leaf_* fleet series, and each leaf's stats
// and health rolled up under a leaf="name" label), a fleet-aware /healthz
// (ok, degraded or down, one line per leaf), the /fleet JSON document
// imptop polls, a JSON /trace fleet-trace dump, and the pprof suite. Like
// ServeAdmin the endpoint is unauthenticated — bind it to loopback or an
// operations network.
func ServeCoordinatorAdmin(addr string, co *Coordinator) (*AdminServer, error) {
	return obs.ListenFleetAdmin(addr, co)
}

// ServeCoordinator starts a wire front-end for co on addr. Closing the
// front-end leaves the coordinator running — callers own its shutdown.
func ServeCoordinator(co *Coordinator, addr string) (*CoordinatorFrontend, error) {
	return coord.Serve(co, addr)
}

// Leaf liveness states reported in LeafStatus.State.
const (
	LeafUp         = proto.LeafUp         // serving and routed to
	LeafDown       = proto.LeafDown       // probes fail; traffic queues in its journal
	LeafRecovering = proto.LeafRecovering // being re-admitted from its checkpoint
)
