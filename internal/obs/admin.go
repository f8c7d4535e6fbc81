package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"implicate/internal/imps"
	"implicate/internal/telemetry"
)

// AdminState is what the admin endpoint reads from a running server: a
// telemetry snapshot, the engine's per-statement health, and the current
// span ring. The server implements it; the split keeps obs free of a
// server dependency (the dependency runs the other way).
type AdminState interface {
	StatsSnapshot() telemetry.Snapshot
	HealthReports() []imps.HealthReport
	TraceSpans() []Span
}

// TenantSpec is the JSON body of POST /tenants — the wire shape of a
// tenant declaration. It mirrors tenant.Config field for field; obs cannot
// import internal/tenant (the dependency runs server → obs), so the server
// does the conversion.
type TenantSpec struct {
	Name      string   `json:"name"`
	Queries   []string `json:"queries"`
	Backend   string   `json:"backend"`
	MemBudget int64    `json:"mem_budget,omitempty"`
	Rate      float64  `json:"rate,omitempty"`
	Burst     float64  `json:"burst,omitempty"`
	Weight    int      `json:"weight,omitempty"`
	QueueLen  int      `json:"queue_len,omitempty"`
}

// TenantAdmin is the optional tenant-lifecycle surface of an AdminState.
// When the state implements it, NewAdminMux registers POST /tenants and
// DELETE /tenants/{name}, and /healthz lists per-tenant health lines.
type TenantAdmin interface {
	CreateTenant(spec TenantSpec) error
	DropTenant(name string) error
	TenantStats() []telemetry.TenantStats
}

// jsonSpan is a span rendered for the /trace dump: kind named, times
// readable, attribution spelled out. The binary RPC codec ships raw Spans;
// JSON exists for humans and jq. The node and identity fields only appear
// on spans that carry them (cross-node traces); single-node dumps leave
// them out.
type jsonSpan struct {
	Node   string `json:"node,omitempty"`
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Arg    int32  `json:"arg"`
	Start  string `json:"start"`
	DurNS  int64  `json:"dur_ns"`
	Units  int64  `json:"units"`
	Trace  uint64 `json:"trace,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	ID     uint64 `json:"id,omitempty"`
}

// adminMux returns the skeleton every admin endpoint shares: the JSON
// /trace dump of spans() and the pprof suite under /debug/pprof/
// (registered explicitly — an admin mux never touches
// http.DefaultServeMux). The caller adds its role's /metrics and /healthz.
func adminMux(spans func() []FleetSpan) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		in := spans()
		out := make([]jsonSpan, len(in))
		for i, s := range in {
			out[i] = jsonSpan{
				Node:   s.Node,
				Seq:    s.Seq,
				Kind:   s.Kind.String(),
				Arg:    s.Arg,
				Start:  time.Unix(0, s.Start).UTC().Format(time.RFC3339Nano),
				DurNS:  s.Dur,
				Units:  s.Units,
				Trace:  s.Trace,
				Parent: s.Parent,
				ID:     s.ID,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewAdminMux returns the impserved admin handler: Prometheus-text
// /metrics, a trivial /healthz, tenant lifecycle routes when st manages
// tenants, and the shared /trace and pprof skeleton.
func NewAdminMux(st AdminState) *http.ServeMux {
	mux := adminMux(func() []FleetSpan {
		// A single node's spans carry no node label.
		spans := st.TraceSpans()
		out := make([]FleetSpan, len(spans))
		for i := range spans {
			out[i].Span = spans[i]
		}
		return out
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors past the header are undeliverable (the scraper hung up);
		// WriteMetrics just stops early.
		_ = WriteMetrics(w, st.StatsSnapshot(), st.HealthReports())
	})
	ta, _ := st.(TenantAdmin)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
		if ta == nil {
			return
		}
		// Single-tenant servers answer exactly "ok\n" (probes and tests pin
		// that); one line per tenant follows only when tenants exist.
		for _, ts := range ta.TenantStats() {
			fmt.Fprintf(w, "tenant %s tuples=%d batches=%d rejected=%d quota_refusals=%d mem=%d/%d queue_hw=%d\n",
				ts.Name, ts.Tuples, ts.Batches, ts.Rejected, ts.QuotaRefusals, ts.MemBytes, ts.MemBudget, ts.QueueHighWater)
		}
	})
	if ta != nil {
		mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, r *http.Request) {
			var spec TenantSpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := ta.CreateTenant(spec); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, "created %s\n", spec.Name)
		})
		mux.HandleFunc("DELETE /tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
			name := r.PathValue("name")
			if err := ta.DropTenant(name); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			fmt.Fprintf(w, "dropped %s\n", name)
		})
	}
	return mux
}

// AdminServer is a running admin endpoint; Close stops it.
type AdminServer struct {
	Addr string // the bound address, resolved from a ":0" request
	srv  *http.Server
}

// listen binds addr and serves h in a background goroutine.
func listen(addr string, h http.Handler) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &AdminServer{Addr: ln.Addr().String(), srv: srv}, nil
}

// ListenAdmin binds addr and serves the admin mux for st in a background
// goroutine. The admin endpoint is unauthenticated (and, when st
// implements TenantAdmin, carries tenant lifecycle routes) — bind it to
// loopback or an operations network, never the ingest address.
func ListenAdmin(addr string, st AdminState) (*AdminServer, error) {
	return listen(addr, NewAdminMux(st))
}

// Close stops the admin endpoint, closing its listener and any open
// scrapes.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	return a.srv.Close()
}
