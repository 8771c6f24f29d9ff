package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"time"
)

// NewServer wraps h in an http.Server with conservative timeouts. The
// bare zero-value server never times a connection out, so one client
// trickling header bytes (slowloris) pins a connection — and its
// goroutine — forever. Every HTTP listener in this module (the metrics
// endpoint here and the tufastd serving daemon) goes through this one
// constructor so the hardening stays in one place.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// Serve starts an HTTP endpoint on addr exposing
//
//	/metrics      the JSON snapshot
//	/debug/vars   the expvar registry (this snapshot included)
//
// It returns the bound address (useful with addr ":0") and a close
// function. Serving runs on a background goroutine; errors after a
// successful Listen are dropped (the endpoint is best-effort
// telemetry, never load-bearing).
func Serve(addr, name string, src func() Snapshot) (bound string, close func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	// Publishing the same name twice keeps the first registration.
	if expvar.Get(name) == nil {
		expvar.Publish(name, expvar.Func(func() any { return src() }))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	srv := NewServer(mux)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
