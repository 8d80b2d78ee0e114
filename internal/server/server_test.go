package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

const (
	testSeries = 300
	testLen    = 64
)

// buildServedTree builds a tree index (3 partitions, one query worker so
// storage-read counts are deterministic) over ffs and returns it with a
// query to ask it.
func buildServedTree(t *testing.T, ffs storage.FS) (*coconut.TreeIndex, coconut.Series) {
	t.Helper()
	if err := coconut.GenerateDataset(ffs, "data.bin", coconut.RandomWalk, testSeries, testLen, 3); err != nil {
		t.Fatal(err)
	}
	ix, err := coconut.BuildTreeIndex(coconut.Config{
		Storage:      ffs,
		Name:         "ix",
		DataFile:     "data.bin",
		SeriesLen:    testLen,
		Partitions:   3,
		QueryWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := coconut.GenerateQueries(coconut.RandomWalk, 1, testLen, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ix, qs[0]
}

// startServer serves s over an httptest server with the request contexts
// wired to s.BaseContext(), as NewHTTPServer would.
func startServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context { return s.BaseContext() }
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServerEndpoints drives the full request surface over a partitioned
// tree index: health, stats, index listing, and the three query modes,
// plus the validation failures (unknown index 404, stale UUID 409, wrong
// series length 400, unknown mode 400).
func TestServerEndpoints(t *testing.T) {
	ffs := storage.NewFaultFS(storage.NewMemFS())
	ix, q := buildServedTree(t, ffs)
	want, err := ix.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle("ix", ix)
	mgr := NewManager()
	mgr.Add(h)
	s := New(mgr, Options{})
	defer mgr.CloseAll()
	ts := startServer(t, s)

	var health map[string]string
	if st := getJSON(t, ts.URL+"/healthz", &health); st != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("/healthz: %d %v", st, health)
	}

	var infos []IndexInfo
	if st := getJSON(t, ts.URL+"/indexes", &infos); st != http.StatusOK {
		t.Fatalf("/indexes: %d", st)
	}
	if len(infos) != 1 || infos[0].Name != "ix" || infos[0].Variant != "tree" ||
		infos[0].SeriesLen != testLen || infos[0].Count != testSeries || infos[0].UUID != h.UUID {
		t.Fatalf("/indexes: %+v", infos)
	}

	// Exact search over HTTP answers identically to the direct API.
	st, body, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q})
	if st != http.StatusOK {
		t.Fatalf("exact query: %d %s", st, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || qr.Results[0].Position != want.Position || qr.Results[0].Distance != want.Distance {
		t.Fatalf("exact over HTTP = %+v, direct = (%d, %v)", qr.Results, want.Position, want.Distance)
	}
	if qr.UUID != h.UUID || qr.Mode != "exact" {
		t.Fatalf("response metadata: %+v", qr)
	}

	st, body, _ = postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q, Mode: "approx"})
	if st != http.StatusOK {
		t.Fatalf("approx query: %d %s", st, body)
	}

	st, body, _ = postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q, Mode: "knn", K: 3})
	if st != http.StatusOK {
		t.Fatalf("knn query: %d %s", st, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 3 {
		t.Fatalf("knn returned %d results, want 3", len(qr.Results))
	}
	if qr.Results[0].Position != want.Position || qr.Results[0].Distance != want.Distance {
		t.Fatalf("knn[0] = %+v, exact = (%d, %v)", qr.Results[0], want.Position, want.Distance)
	}

	// Validation surface.
	if st, _, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "nope", Series: q}); st != http.StatusNotFound {
		t.Fatalf("unknown index: %d, want 404", st)
	}
	if st, _, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", UUID: "stale", Series: q}); st != http.StatusConflict {
		t.Fatalf("stale uuid: %d, want 409", st)
	}
	if st, _, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q[:3]}); st != http.StatusBadRequest {
		t.Fatalf("wrong series length: %d, want 400", st)
	}
	if st, _, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q, Mode: "psychic"}); st != http.StatusBadRequest {
		t.Fatalf("unknown mode: %d, want 400", st)
	}

	// Appends flow through and update the served count.
	batch := make([][]float64, 2)
	for i := range batch {
		batch[i] = make([]float64, testLen)
	}
	st, body, _ = postJSON(t, ts.URL+"/append", AppendRequest{Index: "ix", Series: batch})
	if st != http.StatusOK {
		t.Fatalf("append: %d %s", st, body)
	}
	var stats Stats
	if st := getJSON(t, ts.URL+"/stats", &stats); st != http.StatusOK {
		t.Fatalf("/stats: %d", st)
	}
	if stats.QueriesTotal < 4 || stats.AppendsTotal != 1 || stats.Draining {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Indexes[0].Count != testSeries+2 {
		t.Fatalf("count after append = %d, want %d", stats.Indexes[0].Count, testSeries+2)
	}
}

// TestServerKNNEveryVariant: "mode":"knn" on a tree handle and on an LSM
// handle — inserted records still in its memtable included — returns the
// brute-force top-k under the (distance, position) order.
func TestServerKNNEveryVariant(t *testing.T) {
	const k = 5
	qs, err := coconut.GenerateQueries(coconut.RandomWalk, 3, testLen, 11)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := coconut.GenerateQueries(coconut.RandomWalk, 40, testLen, 13)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	defer mgr.CloseAll()
	want := map[string][]coconut.Series{}
	for _, variant := range []string{"tree", "lsm"} {
		fs := storage.NewMemFS()
		if err := coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, testSeries, testLen, 3); err != nil {
			t.Fatal(err)
		}
		cfg := coconut.Config{Storage: fs, Name: variant, DataFile: "data.bin", SeriesLen: testLen}
		if variant == "tree" {
			ix, err := coconut.BuildTreeIndex(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mgr.Add(NewHandle(variant, ix))
		} else {
			ix, err := coconut.BuildLSMIndex(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Insert(extra); err != nil {
				t.Fatal(err)
			}
			mgr.Add(NewHandle(variant, ix.Index))
		}
		raw, err := storage.ReadFileAll(fs, "data.bin")
		if err != nil {
			t.Fatal(err)
		}
		sz := series.EncodedSize(testLen)
		for off := 0; off < len(raw); off += sz {
			s := make(coconut.Series, testLen)
			series.DecodeInto(raw[off:off+sz], s)
			want[variant] = append(want[variant], s)
		}
	}
	if n := len(want["lsm"]); n != testSeries+len(extra) {
		t.Fatalf("the LSM's dataset holds %d series, want %d", n, testSeries+len(extra))
	}
	ts := startServer(t, New(mgr, Options{}))
	for variant, data := range want {
		for qi, q := range qs {
			st, body, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: variant, Series: q, Mode: "knn", K: k})
			if st != http.StatusOK {
				t.Fatalf("%s knn query %d: %d %s", variant, qi, st, body)
			}
			var qr QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			brute := make([]QueryNeighbor, len(data))
			for i, d := range data {
				dist, err := coconut.Distance(q, d)
				if err != nil {
					t.Fatal(err)
				}
				brute[i] = QueryNeighbor{Position: int64(i), Distance: dist}
			}
			sort.SliceStable(brute, func(a, b int) bool { return brute[a].Distance < brute[b].Distance })
			if len(qr.Results) != k {
				t.Fatalf("%s knn query %d: %d results, want %d", variant, qi, len(qr.Results), k)
			}
			for i, n := range qr.Results {
				if n.Position != brute[i].Position || math.Abs(n.Distance-brute[i].Distance) > 1e-9 {
					t.Fatalf("%s knn query %d rank %d: %+v, brute force %+v", variant, qi, i, n, brute[i])
				}
			}
		}
	}
}

// TestServerApproxRadius: over HTTP an explicit "radius":0 is radius 0 and a
// negative radius is 0 too, as in the library, while an absent radius is 1
// — on a tree and on an LSM, each answer (position, distance, visited
// series) equal to SearchApprox's at that radius. The queries must tell
// radius 0 from radius 1 on each index, or the test would prove nothing.
func TestServerApproxRadius(t *testing.T) {
	qs, err := coconut.GenerateQueries(coconut.RandomWalk, 8, testLen, 17)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	defer mgr.CloseAll()
	ixs := map[string]*coconut.Index{}
	for _, v := range []coconut.Variant{coconut.Tree, coconut.LSM} {
		fs := storage.NewMemFS()
		if err := coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, testSeries, testLen, 3); err != nil {
			t.Fatal(err)
		}
		cfg := coconut.Config{Storage: fs, Name: string(v), DataFile: "data.bin", SeriesLen: testLen}
		ix, err := coconut.Build(context.Background(), cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		ixs[string(v)] = ix
		mgr.Add(NewHandle(string(v), ix))
	}
	ts := startServer(t, New(mgr, Options{}))
	for name, ix := range ixs {
		distinct := false
		for qi, q := range qs {
			var want [2]QueryResponse
			for radius := range want {
				r, err := ix.SearchApprox(q, radius)
				if err != nil {
					t.Fatal(err)
				}
				want[radius] = QueryResponse{Results: []QueryNeighbor{{Position: r.Position, Distance: r.Distance}}, VisitedSeries: r.VisitedSeries}
			}
			distinct = distinct || want[0].Results[0] != want[1].Results[0] || want[0].VisitedSeries != want[1].VisitedSeries
			for _, c := range []struct {
				field  string
				radius int
			}{{`,"radius":0`, 0}, {`,"radius":-3`, 0}, {``, 1}, {`,"radius":1`, 1}} {
				body := `{"index":"` + name + `","mode":"approx","series":` + string(mustJSON(t, q)) + c.field + `}`
				st, raw, _ := postJSON(t, ts.URL+"/query", json.RawMessage(body))
				if st != http.StatusOK {
					t.Fatalf("%s query %d%s: %d %s", name, qi, c.field, st, raw)
				}
				var got QueryResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatal(err)
				}
				w := want[c.radius]
				if len(got.Results) != 1 || got.Results[0] != w.Results[0] || got.VisitedSeries != w.VisitedSeries {
					t.Fatalf("%s query %d%s: %+v visiting %d, SearchApprox at radius %d %+v visiting %d",
						name, qi, c.field, got.Results, got.VisitedSeries, c.radius, w.Results, w.VisitedSeries)
				}
			}
			// A Go client's QueryRequest asks for the radius it holds, 0 too.
			for radius, w := range want {
				st, raw, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: name, Series: q, Mode: "approx", Radius: radius})
				if st != http.StatusOK {
					t.Fatalf("%s query %d, Go-marshalled radius %d: %d %s", name, qi, radius, st, raw)
				}
				var got QueryResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatal(err)
				}
				if len(got.Results) != 1 || got.Results[0] != w.Results[0] || got.VisitedSeries != w.VisitedSeries {
					t.Fatalf("%s query %d, Go-marshalled radius %d: %+v visiting %d, SearchApprox %+v visiting %d",
						name, qi, radius, got.Results, got.VisitedSeries, w.Results, w.VisitedSeries)
				}
			}
		}
		if !distinct {
			t.Fatalf("%s: no query tells radius 0 from radius 1", name)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerShedsAtCapacity: with every query slot occupied, the next
// request is shed with 429 + Retry-After within milliseconds — admission
// control rejects instead of queueing.
func TestServerShedsAtCapacity(t *testing.T) {
	ffs := storage.NewFaultFS(storage.NewMemFS())
	ix, q := buildServedTree(t, ffs)
	mgr := NewManager()
	mgr.Add(NewHandle("slow", ix))
	defer mgr.CloseAll()
	s := New(mgr, Options{MaxInFlightQueries: 2})
	ts := startServer(t, s)
	// Every read blocks until the test unblocks it, so admitted queries
	// hold their slots.
	block := make(chan struct{})
	ffs.SetHook(func(op storage.Op, _ string) {
		if op == storage.OpRead {
			<-block
		}
	})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()

	req := QueryRequest{Index: "slow", Series: q}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, _, _ := postJSON(t, ts.URL+"/query", req)
			done <- st
		}()
	}
	// Wait until both in-flight queries hold their slots.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.querySem) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("blocked queries never filled the admission slots")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	st, _, hdr := postJSON(t, ts.URL+"/query", req)
	shedLatency := time.Since(start)
	if st != http.StatusTooManyRequests {
		t.Fatalf("at capacity: %d, want 429", st)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if shedLatency > 500*time.Millisecond {
		t.Fatalf("shed took %v; rejection must not queue behind in-flight work", shedLatency)
	}

	close(block)
	for i := 0; i < 2; i++ {
		if st := <-done; st != http.StatusOK {
			t.Fatalf("blocked query finished with %d", st)
		}
	}
	var stats Stats
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.ShedQueries != 1 {
		t.Fatalf("shed_queries = %d, want 1", stats.ShedQueries)
	}
	if stats.InFlightQueries != 0 {
		t.Fatalf("in_flight_queries = %d after all done, want 0", stats.InFlightQueries)
	}
}

// TestServerDeadlineMapsTo504: a query stalled in storage past its
// deadline surfaces as 504 within twice the deadline, and the stats
// counter records it.
func TestServerDeadlineMapsTo504(t *testing.T) {
	ffs := storage.NewFaultFS(storage.NewMemFS())
	ix, q := buildServedTree(t, ffs)
	h := NewHandle("ix", ix)
	mgr := NewManager()
	mgr.Add(h)
	s := New(mgr, Options{})
	defer mgr.CloseAll()
	ts := startServer(t, s)

	// Measure the query's deterministic read count, then stall its final
	// read (which sits inside a detachable scan worker).
	ffs.SetCounted(storage.OpRead)
	before := ffs.OpCount()
	if _, err := ix.Search(q); err != nil {
		t.Fatal(err)
	}
	reads := ffs.OpCount() - before
	release, parked := ffs.StallAt(ffs.OpCount() + reads)
	defer release()

	const deadlineMS = 200
	start := time.Now()
	st, body, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q, TimeoutMS: deadlineMS})
	elapsed := time.Since(start)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("stalled query: %d %s, want 504", st, body)
	}
	if elapsed > 2*deadlineMS*time.Millisecond {
		t.Fatalf("stalled query answered in %v, want <= %v (2x deadline)", elapsed, 2*deadlineMS*time.Millisecond)
	}
	<-parked // the stall really did trigger
	var stats Stats
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", stats.DeadlineExceeded)
	}
}

// TestServerGracefulDrain: with no stuck requests, Shutdown completes
// cleanly and closes the indexes.
func TestServerGracefulDrain(t *testing.T) {
	ffs := storage.NewFaultFS(storage.NewMemFS())
	ix, q := buildServedTree(t, ffs)
	mgr := NewManager()
	mgr.Add(NewHandle("ix", ix))
	s := New(mgr, Options{DrainTimeout: 5 * time.Second})
	ts := startServer(t, s)

	if st, body, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix", Series: q}); st != http.StatusOK {
		t.Fatalf("warm-up query: %d %s", st, body)
	}
	if err := s.Shutdown(context.Background(), ts.Config); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if !s.draining.Load() {
		t.Fatal("drain did not latch the draining flag")
	}
	// Shutdown is idempotent: the manager is already closed, the HTTP
	// server already stopped.
	if err := s.Shutdown(context.Background(), ts.Config); err != nil {
		t.Fatalf("second drain returned %v", err)
	}
}

// TestServerDrainForceCancelsStalledRequest is the shutdown half of the
// robustness story: a request stalled in storage cannot finish, the drain
// deadline passes, the server force-cancels it (the handler unwinds with
// ctx.Err(), never a partial answer), and the index still closes
// crash-consistently — a reopen answers the same query identically.
func TestServerDrainForceCancelsStalledRequest(t *testing.T) {
	ffs := storage.NewFaultFS(storage.NewMemFS())
	ix, q := buildServedTree(t, ffs)
	want, err := ix.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	mgr.Add(NewHandle("ix", ix))
	s := New(mgr, Options{DrainTimeout: 300 * time.Millisecond})
	ts := startServer(t, s)

	// Stall the final read of the next query (inside a scan worker).
	ffs.SetCounted(storage.OpRead)
	before := ffs.OpCount()
	if _, err := ix.Search(q); err != nil {
		t.Fatal(err)
	}
	reads := ffs.OpCount() - before
	release, parked := ffs.StallAt(ffs.OpCount() + reads)
	defer release()

	// The force-close at the drain deadline may sever the connection before
	// the handler's 503 is written, so the client must tolerate a transport
	// error (reported as status 0) — either way, no fabricated answer.
	clientDone := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(QueryRequest{Index: "ix", Series: q, TimeoutMS: 60_000})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			clientDone <- 0
			return
		}
		resp.Body.Close()
		clientDone <- resp.StatusCode
	}()
	select {
	case <-parked:
	case st := <-clientDone:
		t.Fatalf("query answered %d before stalling", st)
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the stalled read")
	}

	start := time.Now()
	err = s.Shutdown(context.Background(), ts.Config)
	drainTook := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a stalled request returned %v, want context.DeadlineExceeded", err)
	}
	if drainTook > 3*time.Second {
		t.Fatalf("drain took %v; the deadline must bound shutdown", drainTook)
	}
	select {
	case <-clientDone:
		// 503 or a transport error surfaced as 0 — either way the request
		// terminated without a fabricated answer.
	case <-time.After(5 * time.Second):
		t.Fatal("stalled request never terminated after force-cancel")
	}

	// Crash consistency: the closed index reopens and answers identically.
	ix2, err := coconut.Open(context.Background(), coconut.Config{Storage: ffs, Name: "ix", QueryWorkers: 1})
	if err != nil {
		t.Fatalf("reopen after forced drain: %v", err)
	}
	got, err := ix2.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Position != want.Position || got.Distance != want.Distance {
		t.Fatalf("reopened answer (%d, %v) != pre-drain answer (%d, %v)",
			got.Position, got.Distance, want.Position, want.Distance)
	}
	if err := ix2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerDrainingRejectsNewWork: once draining, new queries and appends
// get 503 and /healthz reports draining.
func TestServerDrainingRejectsNewWork(t *testing.T) {
	mgr := NewManager()
	s := New(mgr, Options{})
	ts := startServer(t, s)
	s.draining.Store(true)

	if st, _, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "ix"}); st != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", st)
	}
	if st, _, _ := postJSON(t, ts.URL+"/append", AppendRequest{Index: "ix"}); st != http.StatusServiceUnavailable {
		t.Fatalf("append while draining: %d, want 503", st)
	}
	var health map[string]string
	if st := getJSON(t, ts.URL+"/healthz", &health); st != http.StatusServiceUnavailable || health["status"] != "draining" {
		t.Fatalf("/healthz while draining: %d %v", st, health)
	}
}

// TestTimeoutFor: the server default applies when the client sends
// nothing, a client override wins below the cap, and the cap binds above.
func TestTimeoutFor(t *testing.T) {
	s := New(NewManager(), Options{DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute})
	cases := []struct {
		clientMS int64
		want     time.Duration
	}{
		{0, 10 * time.Second},
		{-5, 10 * time.Second},
		{500, 500 * time.Millisecond},
		{10 * 60 * 1000, time.Minute},
	}
	for _, c := range cases {
		if got := s.timeoutFor(c.clientMS); got != c.want {
			t.Errorf("timeoutFor(%d) = %v, want %v", c.clientMS, got, c.want)
		}
	}
}

// TestStatsExposeBlockCache: serving a (compressed-by-default) LSM index,
// /stats reports the index's block-cache counters — after queries, hits
// plus misses are non-zero, the budget reflects Config.CacheBytes, and a
// cache the run fits in counts no scan decode.
func TestStatsExposeBlockCache(t *testing.T) {
	fs := storage.NewMemFS()
	if err := coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, testSeries, testLen, 3); err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	ix, err := coconut.BuildLSMIndex(coconut.Config{
		Storage:    fs,
		Name:       "lx",
		DataFile:   "data.bin",
		SeriesLen:  testLen,
		CacheBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	mgr.Add(NewHandle("lx", ix.Index))
	s := New(mgr, Options{})
	defer mgr.CloseAll()
	ts := startServer(t, s)

	qs, err := coconut.GenerateQueries(coconut.RandomWalk, 3, testLen, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		st, body, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "lx", Series: q})
		if st != http.StatusOK {
			t.Fatalf("query: %d %s", st, body)
		}
	}
	var stats Stats
	if st := getJSON(t, ts.URL+"/stats", &stats); st != http.StatusOK {
		t.Fatalf("/stats: %d", st)
	}
	bc := stats.Indexes[0].BlockCache
	if bc.Hits+bc.Misses == 0 {
		t.Fatalf("block cache never touched: %+v", bc)
	}
	if bc.Budget != budget {
		t.Fatalf("budget = %d, want %d", bc.Budget, budget)
	}
	if bc.ScanDecodes != 0 {
		t.Fatalf("a cache that fits reports %d scan decodes", bc.ScanDecodes)
	}
}

// buildServedParted builds a 2-partition tree over a fresh dataset and
// serves it under the name "parted".
func buildServedParted(t *testing.T) *httptest.Server {
	t.Helper()
	fs := storage.NewMemFS()
	if err := coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, testSeries, testLen, 3); err != nil {
		t.Fatal(err)
	}
	ix, err := coconut.Build(context.Background(), coconut.Config{
		Storage: fs, Name: "parted", DataFile: "data.bin", SeriesLen: testLen, Partitions: 2,
	}, coconut.Tree)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	mgr.Add(NewHandle("parted", ix))
	t.Cleanup(func() { mgr.CloseAll() })
	return startServer(t, New(mgr, Options{}))
}

// TestServerApproxRadiusOutOfRange: an approximate query with a radius
// below 0 or past what any index fills is answered — a radius whose window
// overflowed once panicked on a partition's fan-out goroutine, which no
// handler can recover, and took the daemon down.
func TestServerApproxRadiusOutOfRange(t *testing.T) {
	ts := buildServedParted(t)
	qs, err := coconut.GenerateQueries(coconut.RandomWalk, 1, testLen, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, radius := range []int{-1, -2, math.MinInt, 1 << 58, math.MaxInt} {
		st, body, _ := postJSON(t, ts.URL+"/query", QueryRequest{Index: "parted", Series: qs[0], Mode: "approx", Radius: radius})
		if st != http.StatusOK {
			t.Fatalf("radius %d: %d %s", radius, st, body)
		}
	}
}

// managerClosed reports whether mgr's indexes were closed.
func managerClosed(mgr *Manager) bool {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.closed
}

// TestListenAndServeFailureClosesIndexes: a listener that cannot start ends
// ListenAndServe with its error, every index closed and no signal handled.
func TestListenAndServeFailureClosesIndexes(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	ix, _ := buildServedTree(t, storage.NewMemFS())
	mgr := NewManager()
	mgr.Add(NewHandle("ix", ix))
	s := New(mgr, Options{})
	err = s.ListenAndServe(s.NewHTTPServer(taken.Addr().String()), func(sig os.Signal) {
		t.Errorf("signal %v handled on a failed listen", sig)
	})
	if err == nil {
		t.Fatal("serving on a taken address returned nil")
	}
	if !managerClosed(mgr) {
		t.Fatal("a failed listen left the indexes open")
	}
}
