package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"tdmd/internal/serve"
)

// service is an in-process tdmd HTTP service on a loopback port plus
// the client that drives it.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startService builds the server with serve.New, wraps its mux with
// wrap (nil = none) and serves it on 127.0.0.1. The access log is
// formatted as in production and discarded. The client keeps at most
// conns connections.
func startService(cfg serve.Config, conns int, wrap func(http.Handler) http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(cfg, slog.New(slog.NewTextHandler(io.Discard, nil)))
	var h http.Handler = srv.Mux()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{
		srv: srv,
		hs:  &http.Server{Handler: h},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener and the engine and waits for both.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Close(ctx))
}

// handlerSpans returns a middleware that records one span per request
// around the wrapped handler. The client names the request and its
// own span in the X-Bench-Op and X-Bench-Span headers; the tag is the
// X-Tdmd-Solve source the handler answered with.
func handlerSpans(rec *recorder) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !rec.on.Load() {
				next.ServeHTTP(w, r)
				return
			}
			id := rec.newID()
			start := rec.now()
			next.ServeHTTP(w, r)
			end := rec.now()
			req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
			parent, err := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 32)
			if err != nil {
				parent = -1
			}
			tag := w.Header().Get("X-Tdmd-Solve")
			if tag == "" {
				tag = r.Method
			}
			rec.add(span{ID: id, Parent: int32(parent), Req: req, Name: "serve.handler",
				Tag: tag, Start: start, End: end})
		})
	}
}
