package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/ledger"
	"repro/internal/stats"
)

// DebugServer serves Go's runtime profilers (net/http/pprof), a
// Prometheus text-format /metrics endpoint of live suite counters plus
// perf-ledger gauges, and /ledger — the hash-chained longitudinal perf
// history with the latest statistical deltas — while a kernel runs (the
// `--httpdebug` flag of cmd/rtrbench). It binds its own mux (nothing
// leaks onto http.DefaultServeMux) and its own listener so tests can use
// port 0.
type DebugServer struct {
	// URL is the server's base address, e.g. "http://127.0.0.1:6060".
	URL string

	ln  net.Listener
	srv *http.Server
}

// DebugOptions configures StartDebugServer.
type DebugOptions struct {
	// Addr is host:port to bind (port 0 picks a free port).
	Addr string
	// Registry supplies the /metrics counters; nil uses LiveCounters.
	Registry *Registry
	// LedgerPath is the hash-chained perf-ledger file backing /ledger and
	// the ledger gauges on /metrics. The file is re-read per request (it
	// may appear or grow while the server runs); missing is not an error
	// — /ledger then reports an empty chain. Default "PERF_LEDGER.jsonl".
	LedgerPath string
	// Stats configures the latest-deltas comparison (alpha, noise
	// threshold). The zero value uses stats defaults.
	Stats stats.Options
	// Handlers mounts extra routes (pattern → handler) on the server's
	// mux, letting a daemon build its API on the debug surface so
	// /metrics, /ledger, and pprof come for free. Patterns follow
	// http.ServeMux semantics; the built-in routes win on conflict.
	Handlers map[string]http.Handler
	// ReadTimeout, WriteTimeout, and IdleTimeout harden the HTTP server
	// against slow-loris clients and wedged connections. Zero leaves the
	// corresponding limit off (the 5s ReadHeaderTimeout always applies).
	// Long-polling handlers (e.g. ?wait=) must fit inside WriteTimeout.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
}

// DefaultLedgerPath is the conventional ledger location at the repo root,
// written by `benchdiff -ledger append`.
const DefaultLedgerPath = "PERF_LEDGER.jsonl"

// ledgerState is the /ledger response document.
type ledgerState struct {
	// Path is the ledger file backing this view.
	Path string `json:"path"`
	// Entries is the chain length.
	Entries int `json:"entries"`
	// ChainOK reports whether the hash chain verifies end to end;
	// ChainError carries the failure when it does not.
	ChainOK    bool   `json:"chain_ok"`
	ChainError string `json:"chain_error,omitempty"`
	// History summarizes every entry, oldest first.
	History []ledgerHistoryEntry `json:"history,omitempty"`
	// LatestDeltas compares the last two entries benchmark by benchmark
	// (absent with fewer than two entries).
	LatestDeltas *benchfmt.Report `json:"latest_deltas,omitempty"`
}

type ledgerHistoryEntry struct {
	Index      int    `json:"index"`
	Date       string `json:"date"`
	Note       string `json:"note,omitempty"`
	Benchmarks int    `json:"benchmarks"`
	Goldens    int    `json:"goldens"`
	Hash       string `json:"hash"`
}

// readLedger loads and summarizes the ledger file for both /ledger and the
// /metrics gauges.
func readLedger(path string, opts stats.Options) ledgerState {
	st := ledgerState{Path: path}
	entries, err := ledger.Load(path)
	if err != nil {
		st.ChainError = err.Error()
		return st
	}
	st.Entries = len(entries)
	if err := ledger.VerifyChain(entries); err != nil {
		st.ChainError = err.Error()
	} else {
		st.ChainOK = true
	}
	for _, e := range entries {
		st.History = append(st.History, ledgerHistoryEntry{
			Index: e.Index, Date: e.Snapshot.Date, Note: e.Note,
			Benchmarks: len(e.Snapshot.Benchmarks), Goldens: len(e.Snapshot.Goldens),
			Hash: e.Hash,
		})
	}
	if old, latest, ok := ledger.LatestPair(entries); ok {
		if rep, err := benchfmt.Diff(old, latest, benchfmt.DiffOptions{Stats: opts, Allocs: true}); err == nil {
			st.LatestDeltas = &rep
		}
	}
	return st
}

// writeLedgerMetrics appends the perf-ledger gauges to the Prometheus
// exposition: chain length and health, and the latest per-benchmark
// medians and deltas, so a scraper sees perf history next to the live
// counters.
func writeLedgerMetrics(w http.ResponseWriter, st ledgerState) {
	b01 := func(ok bool) int {
		if ok {
			return 1
		}
		return 0
	}
	fmt.Fprintf(w, "# TYPE rtrbench_ledger_entries gauge\nrtrbench_ledger_entries %d\n", st.Entries)
	fmt.Fprintf(w, "# TYPE rtrbench_ledger_chain_ok gauge\nrtrbench_ledger_chain_ok %d\n", b01(st.ChainOK))
	if st.LatestDeltas == nil {
		return
	}
	fmt.Fprintf(w, "# TYPE rtrbench_ledger_ns_op gauge\n")
	fmt.Fprintf(w, "# TYPE rtrbench_ledger_delta_pct gauge\n")
	fmt.Fprintf(w, "# TYPE rtrbench_ledger_regression gauge\n")
	for _, d := range st.LatestDeltas.Deltas {
		if d.Verdict == benchfmt.VerdictOnlyOld {
			continue
		}
		name := sanitizeMetricName(d.Name)
		fmt.Fprintf(w, "rtrbench_ledger_ns_op{benchmark=%q} %g\n", name, d.New.Median)
		if d.Verdict != benchfmt.VerdictOnlyNew {
			fmt.Fprintf(w, "rtrbench_ledger_delta_pct{benchmark=%q} %g\n", name, d.Delta)
			fmt.Fprintf(w, "rtrbench_ledger_regression{benchmark=%q} %d\n",
				name, b01(d.Verdict == benchfmt.VerdictRegression))
		}
	}
}

// StartDebugServer starts the debug server described by opts.
func StartDebugServer(opts DebugOptions) (*DebugServer, error) {
	reg := opts.Registry
	if reg == nil {
		reg = LiveCounters
	}
	ledgerPath := opts.LedgerPath
	if ledgerPath == "" {
		ledgerPath = DefaultLedgerPath
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", opts.Addr, err)
	}

	mux := http.NewServeMux()
	builtin := map[string]bool{
		"/debug/pprof/": true, "/debug/pprof/cmdline": true, "/debug/pprof/profile": true,
		"/debug/pprof/symbol": true, "/debug/pprof/trace": true,
		"/metrics": true, "/ledger": true, "/": true,
	}
	for pattern, h := range opts.Handlers {
		if builtin[pattern] {
			continue
		}
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.WriteMetrics(w); err != nil {
			return
		}
		writeLedgerMetrics(w, readLedger(ledgerPath, opts.Stats))
	})
	mux.HandleFunc("/ledger", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(readLedger(ledgerPath, opts.Stats))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "rtrbench debug server\n\n/metrics\n/ledger\n/debug/pprof/\n")
	})

	s := &DebugServer{
		URL: "http://" + ln.Addr().String(),
		ln:  ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       opts.ReadTimeout,
			WriteTimeout:      opts.WriteTimeout,
			IdleTimeout:       opts.IdleTimeout,
		},
	}
	go func() {
		// ErrServerClosed on Close is the expected shutdown path.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Close stops the server and releases the port.
func (s *DebugServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
