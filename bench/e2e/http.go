package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/server"
)

// httpServer is internal/server listening on loopback plus the one client
// this process drives it with, over at most two keep-alive connections.
type httpServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string

	requests, reqBytes, respBytes atomic.Int64
}

// serve puts the open trie behind internal/server on 127.0.0.1:0 and encodes
// the request bodies of the query lists.
func (r *run) serve(h *handle, name string) (*httpServer, error) {
	mgr := server.NewManager()
	mgr.Add(server.NewTrieHandle(name, h.trie, seriesLen))
	s := &httpServer{srv: server.New(mgr, server.Options{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = s.srv.NewHTTPServer(ln.Addr().String())
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: mixedClients, MaxIdleConnsPerHost: mixedClients}}
	// The exact list is asked in both modes, the approx list in one. A body
	// already there was encoded for an earlier server of this run: the index
	// name is the same.
	body := func(q *query, mode string) []byte {
		b, _ := json.Marshal(server.QueryRequest{Index: name, Series: q.s, Mode: mode, Radius: approxRadius}) // finite floats and strings always encode
		return b
	}
	for i := range r.exactQ {
		if q := &r.exactQ[i]; q.exactBody == nil {
			q.exactBody, q.approxBody = body(q, "exact"), body(q, "approx")
		}
	}
	for i := range r.approxQ {
		if q := &r.approxQ[i]; q.approxBody == nil {
			q.approxBody = body(q, "approx")
		}
	}
	return s, nil
}

// stop drains the server (which closes the index) and waits for the accept
// loop to return.
func (s *httpServer) stop() {
	s.client.CloseIdleConnections()
	_ = s.srv.Shutdown(context.Background(), s.hs) // drain errors do not change a finished measurement
	<-s.served
}

func (s *httpServer) post(body []byte) (coconut.Result, error) {
	resp, err := s.client.Post(s.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return coconut.Result{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return coconut.Result{}, err
	}
	s.requests.Add(1)
	s.reqBytes.Add(int64(len(body)))
	s.respBytes.Add(int64(len(b)))
	if resp.StatusCode != http.StatusOK { // a 429 is a refused request, so a failed one
		return coconut.Result{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		return coconut.Result{}, err
	}
	if len(qr.Results) != 1 {
		return coconut.Result{}, fmt.Errorf("%d results in a 1-NN answer", len(qr.Results))
	}
	return coconut.Result{Position: qr.Results[0].Position, Distance: qr.Results[0].Distance, VisitedSeries: qr.VisitedSeries}, nil
}

func (s *httpServer) exact(q *query) (coconut.Result, error)  { return s.post(q.exactBody) }
func (s *httpServer) approx(q *query) (coconut.Result, error) { return s.post(q.approxBody) }

// describe reads the server's own counters over HTTP, as an operator would.
func (s *httpServer) describe(r *run) {
	if n := float64(s.requests.Load()); n > 0 {
		r.layer["server.request_bytes"] = float64(s.reqBytes.Load()) / n
		r.layer["server.response_bytes"] = float64(s.respBytes.Load()) / n
	}
	resp, err := s.client.Get(s.base + "/stats")
	if !r.op("GET /stats", err) {
		return
	}
	defer resp.Body.Close()
	var st server.Stats
	if !r.op("decoding /stats", json.NewDecoder(resp.Body).Decode(&st)) {
		return
	}
	if total := st.QueriesTotal + st.ShedQueries; total > 0 {
		r.layer["server.shed_share"] = float64(st.ShedQueries) / float64(total)
	}
}

// Open loop: requests leave on a fixed schedule whether or not earlier ones
// have come back, as independent users would send them.
const (
	openLoopRate  = 300 // requests per second
	openLoopAfter = time.Millisecond
)

// openLoop sends the mixed query mix at openLoopRate for d over the two
// connections. A request's latency runs from the moment it was due, so time
// spent waiting behind a slow one counts; late is the share that left more
// than a millisecond after its due time.
func (r *run) openLoop(s *httpServer, d time.Duration) (p50, p99, late float64) {
	_, done := r.rec.scope("server.open_loop", r.top, 0)
	defer done()
	total := max(int(d.Seconds()*openLoopRate), 2*(mixedApprox+1)) // the smoke scale still sends two exact queries
	lat := make([]float64, total)
	var next, lateN atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < mixedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * time.Second / openLoopRate)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else if -wait > openLoopAfter {
					lateN.Add(1)
				}
				if k%(mixedApprox+1) == mixedApprox {
					j := k / (mixedApprox + 1) % len(r.exactQ)
					if res, err := s.exact(&r.exactQ[j]); r.op("open-loop exact", err) {
						r.checkExact("open-loop exact", res, r.exactAns[j], r.count)
					}
				} else if res, err := s.approx(&r.approxQ[k%len(r.approxQ)]); r.op("open-loop approx", err) {
					r.checkApprox("open-loop approx", res, nil, r.count)
				}
				lat[k] = ms(time.Since(due))
			}
		}()
	}
	wg.Wait()
	return percentile(lat, 50), percentile(lat, 99), float64(lateN.Load()) / float64(total)
}
