package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer serves Go's runtime profilers (net/http/pprof) and a
// Prometheus text-format /metrics dump of a live-counter registry while a
// kernel runs (the `--httpdebug` flag of cmd/rtrbench). It binds its own
// mux (nothing leaks onto http.DefaultServeMux) and its own listener so
// tests can use port 0.
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
	// Handlers mounts extra routes (pattern → handler) on the server's
	// mux, letting a daemon build its API on the debug surface so
	// /metrics and pprof come for free. Patterns follow http.ServeMux
	// semantics; the built-in routes win on conflict.
	Handlers map[string]http.Handler
	// ReadTimeout, WriteTimeout, and IdleTimeout harden the HTTP server
	// against slow-loris clients and wedged connections. Zero leaves the
	// corresponding limit off (the 5s ReadHeaderTimeout always applies).
	// Long-polling handlers (e.g. ?wait=) must fit inside WriteTimeout.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
}

// StartDebugServer starts the debug server described by opts.
func StartDebugServer(opts DebugOptions) (*DebugServer, error) {
	reg := opts.Registry
	if reg == nil {
		reg = LiveCounters
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", opts.Addr, err)
	}

	mux := http.NewServeMux()
	builtin := map[string]bool{
		"/debug/pprof/": true, "/debug/pprof/cmdline": true, "/debug/pprof/profile": true,
		"/debug/pprof/symbol": true, "/debug/pprof/trace": true,
		"/metrics": true, "/": true,
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
		_ = reg.WriteMetrics(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "rtrbench debug server\n\n/metrics\n/debug/pprof/\n")
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
