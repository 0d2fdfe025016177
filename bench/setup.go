package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/paper-repo/staccato-go/pkg/server"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

const ingestBatch = 256

// service is one in-process staccatod: a DB behind pkg/server on a
// loopback listener. The driver keeps db and srv so the traced run can
// call below the socket.
type service struct {
	db   *staccatodb.DB
	srv  *server.Server
	http *http.Server
	url  string
	done chan error // Serve's return value
}

// openService opens the store in dir (NoSync: the flush policy is stated
// and the same on both sides of any comparison) and serves it.
func openService(dir string) (*service, error) {
	db, err := staccatodb.Open(dir, staccatodb.WithNoSync())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &service{db: db, srv: server.New(db, server.Options{}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close drains the HTTP server, then the staccato server, which closes
// the DB and releases the store's flock.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	<-s.done
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

// newClient returns an HTTP client that keeps one idle connection per
// closed-loop caller, so no request pays a dial.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}
}

// do sends one op; any transport error or non-2xx status is an error.
// The response body is returned only when keep is set: timed passes
// discard it, the check pass decodes it.
func do(c *http.Client, base string, o op, keep bool) ([]byte, error) {
	req, err := http.NewRequest(o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		return nil, fmt.Errorf("%s %s: status %d: %s", o.method, o.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if keep {
		return io.ReadAll(resp.Body)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return nil, err
}

// setupTimes are the timed segments of one set-up; setup_s is their sum.
type setupTimes struct {
	build, ingest, shutdown, reopen, firstSearch time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.build + t.ingest + t.shutdown + t.reopen + t.firstSearch
}

// setUp loads the corpus into a fresh store in the empty directory dir the way a user of
// staccatod would: approximate every document, bulk-ingest over HTTP,
// stop the server, start it again on the persisted store, and wait for
// the first search to answer. Marshalling the ingest bodies is the
// benchmark's cost and stays outside the timed segments. The returned
// service is serving the reopened store.
func setUp(dir string, corpus []source, first op) (*service, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	docs := make([]*staccato.Doc, len(corpus))
	for i, src := range corpus {
		d, err := buildDoc(src)
		if err != nil {
			return nil, t, err
		}
		docs[i] = d
	}
	t.build = time.Since(start)

	var bodies []op
	for i := 0; i < len(docs); i += ingestBatch {
		o, err := ingestOp(docs[i:min(i+ingestBatch, len(docs))])
		if err != nil {
			return nil, t, err
		}
		bodies = append(bodies, o)
	}

	svc, err := openService(dir)
	if err != nil {
		return nil, t, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	start = time.Now()
	for _, b := range bodies {
		if _, err := do(client, svc.url, b, false); err != nil {
			svc.close()
			return nil, t, err
		}
	}
	t.ingest = time.Since(start)

	start = time.Now()
	if err := svc.close(); err != nil {
		return nil, t, err
	}
	t.shutdown = time.Since(start)

	start = time.Now()
	svc, err = openService(dir)
	if err != nil {
		return nil, t, err
	}
	t.reopen = time.Since(start)

	start = time.Now()
	if _, err := do(client, svc.url, first, false); err != nil {
		svc.close()
		return nil, t, err
	}
	t.firstSearch = time.Since(start)
	return svc, t, nil
}
