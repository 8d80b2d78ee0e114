package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/storage"
)

// run is one workload, one seed, one process-lifetime of measurements.
type run struct {
	sp     spec
	sh     shape
	seed   int64
	budget time.Duration // -seconds: how long the query phases measure
	traced bool

	dir string
	fs  coconut.Storage // what the program under test reads and writes
	osf *storage.OSFS   // the same directory without the timing wrapper
	io  *ioTimes        // traced only
	rec *recorder       // nil unless traced
	top int64           // the workload's root span

	in        *inputs
	exactQ    []query
	approxQ   []query
	ingestQ   []query
	exactAns  []answer
	ingestAns []answer
	rawCheck  *os.File // the indexed raw file, for verifying approx answers
	count     int64    // series the open handle covers

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string

	e2e   map[string]float64
	layer map[string]float64
	knobs map[string]any
}

// query is one series of a fixed list, with its HTTP bodies when the
// workload is served (encoded before any timing: the client's encoder is the
// benchmark's work, not the program's).
type query struct {
	s          coconut.Series
	exactBody  []byte
	approxBody []byte
}

func asQueries(ss []coconut.Series) []query {
	qs := make([]query, len(ss))
	for i, s := range ss {
		qs[i].s = s
	}
	return qs
}

// target is where a client sends queries: the open handle, or the HTTP
// server in front of it.
type target interface {
	exact(q *query) (coconut.Result, error)
	approx(q *query) (coconut.Result, error)
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.errMu.Unlock()
}

// op counts one attempted operation; a non-nil error makes it a failed one.
func (r *run) op(what string, err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

const distTol = 1e-9

// checkExact compares an exact answer with the oracle's.
func (r *run) checkExact(what string, res coconut.Result, want answer, count int64) {
	if res.Position < 0 || res.Position >= count || math.Abs(res.Distance-want.dist) > distTol {
		r.fail("%s: got #%d at %.12g, brute force says #%d at %.12g", what, res.Position, res.Distance, want.pos, want.dist)
	}
}

// checkApprox checks what holds for every approximate answer: a real
// position, and never closer than the true nearest neighbour when that is
// known (want may be nil).
func (r *run) checkApprox(what string, res coconut.Result, want *answer, count int64) {
	switch {
	case res.Position < 0 || res.Position >= count:
		r.fail("%s: position %d outside [0,%d)", what, res.Position, count)
	case want != nil && res.Distance < want.dist-distTol:
		r.fail("%s: approx distance %.12g below the exact %.12g", what, res.Distance, want.dist)
	}
}

// cycleOut is what one set-up cycle measured.
type cycleOut struct {
	total, build, open, firstExact float64 // seconds
	buildIO                        storage.Snapshot
	buildTimes                     ioSnap
	rawBytes                       int64 // raw bytes the build (or the ingest) indexed
	indexBytes                     int64
	ingest                         *ingestOut
}

// cycle is the program's whole set-up, timed: raw file → built → closed →
// reopened → first exact query → warm handle. The handle is returned open.
func (r *run) cycle(i int, phase int64) (cycleOut, *handle, error) {
	var out cycleOut
	cfg := r.cycleConfig(i)
	if r.sp.Bulk > 0 {
		if err := copyFile(filepath.Join(r.dir, cfg.DataFile), filepath.Join(r.dir, r.in.dataFile)); err != nil {
			return out, nil, err
		}
	}
	bulk := r.sp.N
	if r.sp.Bulk > 0 {
		bulk = r.sp.Bulk
	}

	start := time.Now()
	io0, t0 := r.fs.Stats().Snapshot(), r.ioSnap()
	span, done := r.rec.scope("cycle.build", phase, 0)
	h, err := buildIndex(r.sp.Variant, cfg)
	done()
	out.build = time.Since(start).Seconds()
	out.rawBytes = int64(bulk) * recBytes
	if !r.op("build", err) {
		return out, nil, err
	}
	if r.sp.Bulk > 0 {
		// The measured build is the stream: bytes and time from here on.
		io0, t0 = r.fs.Stats().Snapshot(), r.ioSnap()
		var done func()
		span, done = r.rec.scope("cycle.ingest", phase, 0)
		out.ingest, err = r.ingest(h, span)
		done()
		if err != nil {
			h.close()
			return out, nil, err
		}
		out.build = out.ingest.insertS + out.ingest.syncS
		out.rawBytes = int64(r.sp.N-r.sp.Bulk) * recBytes
	}
	out.buildIO = r.fs.Stats().Snapshot().Sub(io0)
	out.buildTimes = r.ioSnap().sub(t0)
	r.rec.annotate(span, map[string]int64{
		"bytes_read": out.buildIO.BytesRead, "bytes_written": out.buildIO.BytesWritten,
		"rand_writes": out.buildIO.RandWrites, "syncs": out.buildTimes.syncs,
		"write_ns": out.buildTimes.writeNS, "sync_ns": out.buildTimes.syncNS,
	})
	if !r.op("close", h.close()) {
		return out, nil, errors.New("close after build failed")
	}

	t := time.Now()
	_, done = r.rec.scope("cycle.open", phase, 0)
	h, err = openIndex(r.sp.Variant, cfg)
	done()
	out.open = time.Since(t).Seconds()
	if !r.op("open", err) {
		return out, nil, err
	}
	r.count = int64(r.sp.N)

	// Each cycle asks the next queries of the list, so the median over the
	// cycles is not the cost of one query that happens to be hard.
	first := i * (1 + r.sh.WarmExact) % len(r.exactQ)
	t = time.Now()
	_, done = r.rec.scope("cycle.first_exact", phase, 0)
	res, err := h.exact(&r.exactQ[first])
	done()
	out.firstExact = time.Since(t).Seconds()
	if r.op("first exact", err) {
		r.checkExact("first exact", res, r.exactAns[first], r.count)
	}
	_, done = r.rec.scope("cycle.warm", phase, 0)
	for k := 1; k <= r.sh.WarmExact; k++ {
		j := (first + k) % len(r.exactQ)
		if res, err := h.exact(&r.exactQ[j]); r.op("warm exact", err) {
			r.checkExact("warm exact", res, r.exactAns[j], r.count)
		}
	}
	for k := 0; k < r.sh.WarmApprox; k++ {
		if res, err := h.approx(&r.approxQ[k%len(r.approxQ)]); r.op("warm approx", err) {
			r.checkApprox("warm approx", res, nil, r.count)
		}
	}
	done()
	out.total = time.Since(start).Seconds()

	entries, err := os.ReadDir(r.dir)
	if err != nil {
		h.close()
		return out, nil, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !strings.HasSuffix(e.Name(), ".bin") {
			out.indexBytes += info.Size()
		}
	}
	return out, h, nil
}

// cleanDir removes everything but the generated inputs, so each cycle starts
// from the raw file alone (the record-checksum sidecar included: a cycle
// that found it would do less work than the first one did).
func (r *run) cleanDir() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if n := e.Name(); n != r.in.dataFile && n != r.in.streamFile {
			if err := os.Remove(filepath.Join(r.dir, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *run) ioSnap() ioSnap {
	if r.io == nil {
		return ioSnap{}
	}
	return r.io.snap()
}

// ingestOut is one whole stream: per-batch Insert latency and the queries
// asked in between.
type ingestOut struct {
	insertMS       []float64
	exactMS        []float64
	approxMS       []float64
	insertS, syncS float64
	runs           int
}

// ingest streams the second file into the open LSM handle, one Insert per
// batch, single client, asking a fixed query group after every QueryEvery-th
// batch. The stream is read batch by batch so the benchmark's heap stays
// small; reading is not timed.
func (r *run) ingest(h *handle, parent int64) (*ingestOut, error) {
	f, err := os.Open(filepath.Join(r.dir, r.in.streamFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &ingestOut{}
	raw := make([]byte, r.sp.Batch*recBytes)
	flat := make([]float64, r.sp.Batch*seriesLen)
	batch := make([]coconut.Series, r.sp.Batch)
	for i := range batch {
		batch[i] = flat[i*seriesLen : (i+1)*seriesLen]
	}
	count := int64(r.sp.Bulk)
	batches := (r.sp.N - r.sp.Bulk) / r.sp.Batch
	for b := 0; b < batches; b++ {
		if _, err := f.ReadAt(raw, int64(b)*int64(len(raw))); err != nil {
			return nil, err
		}
		for i := range batch {
			decodeInto(raw[i*recBytes:], batch[i])
		}
		_, done := r.rec.scope("lsm.insert", parent, r.rec.nextReq())
		t := time.Now()
		err := h.lsm.Insert(batch)
		d := time.Since(t)
		done()
		if !r.op("insert", err) {
			return nil, err
		}
		out.insertMS = append(out.insertMS, ms(d))
		out.insertS += d.Seconds()
		count += int64(len(batch))
		if (b+1)%r.sp.QueryEvery != 0 {
			continue
		}
		g := (b+1)/r.sp.QueryEvery - 1
		t = time.Now()
		res, err := h.exact(&r.ingestQ[g])
		out.exactMS = append(out.exactMS, ms(time.Since(t)))
		if r.op("ingest exact", err) {
			r.checkExact("ingest exact", res, r.ingestAns[g], count)
		}
		for k := 0; k < r.sp.IngestApprox; k++ {
			q := &r.approxQ[(g*r.sp.IngestApprox+k)%len(r.approxQ)]
			t = time.Now()
			res, err := h.approx(q)
			out.approxMS = append(out.approxMS, ms(time.Since(t)))
			if r.op("ingest approx", err) {
				r.checkApprox("ingest approx", res, nil, count)
			}
		}
	}
	t := time.Now()
	err = h.lsm.Sync()
	out.syncS = time.Since(t).Seconds()
	if !r.op("sync", err) {
		return nil, err
	}
	out.runs = h.lsm.NumRuns()
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passOut is one replay of a query list.
type passOut struct {
	lat     []float64 // ms per query, list order
	readKB  []float64 // storage bytes read during each query; one client, so they are its own
	results []coconut.Result
	io      storage.Snapshot
	times   ioSnap
	// runtime.MemStats deltas over the pass, benchmark's own allocations included.
	mallocs, allocBytes, gcPauseNS uint64
}

// pass replays a list once, in order, on one client. Every answer goes
// through check; timing covers the call alone.
func (r *run) pass(name string, parent int64, qs []query, do func(*query) (coconut.Result, error), check func(i int, res coconut.Result)) passOut {
	out := passOut{lat: make([]float64, len(qs)), readKB: make([]float64, len(qs)), results: make([]coconut.Result, len(qs))}
	id, done := r.rec.scope(name, parent, 0)
	defer done()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats := r.fs.Stats()
	io0, t0 := stats.Snapshot(), r.ioSnap()
	for i := range qs {
		_, opDone := r.rec.scope("query", id, r.rec.nextReq())
		read0 := stats.BytesRead.Load()
		t := time.Now()
		res, err := do(&qs[i])
		out.lat[i] = ms(time.Since(t))
		out.readKB[i] = float64(stats.BytesRead.Load()-read0) / 1024
		opDone()
		out.results[i] = res
		if r.op(name, err) {
			check(i, res)
		}
	}
	out.io = stats.Snapshot().Sub(io0)
	out.times = r.ioSnap().sub(t0)
	r.rec.annotate(id, map[string]int64{
		"queries": int64(len(qs)), "bytes_read": out.io.BytesRead,
		"rand_reads": out.io.RandReads, "seq_reads": out.io.SeqReads, "read_ns": out.times.readNS,
	})
	runtime.ReadMemStats(&m1)
	out.mallocs, out.allocBytes, out.gcPauseNS = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.PauseTotalNs-m0.PauseTotalNs
	return out
}

// phaseOut is a best-of-R phase over one list.
type phaseOut struct {
	best   []float64 // per-query minimum over the timed passes
	raw    []float64 // every timed sample
	passes int
	last   passOut
}

// bestOfPasses is the pass estimator: one untimed warm-up pass over the first
// warm queries, then whole timed passes while budget lasts, at least atLeast
// of them.
func (r *run) bestOfPasses(name string, budget time.Duration, atLeast, warm int, qs []query, do func(*query) (coconut.Result, error), check func(i int, res coconut.Result)) phaseOut {
	id, done := r.rec.scope(name, r.top, 0)
	defer done()
	r.pass(name+".warm", id, qs[:warm], do, check)
	var out phaseOut
	var lats [][]float64
	out.passes = repeat(budget, atLeast, func() {
		out.last = r.pass(name+".pass", id, qs, do, check)
		lats = append(lats, out.last.lat)
		out.raw = append(out.raw, out.last.lat...)
	})
	out.best = bestOf(lats)
	return out
}

// repeat calls once at least atLeast times and then for as long as another
// call, at the average cost so far, still fits in budget. It returns the
// number of calls: how a phase measures for its share of -seconds in whole
// passes.
func repeat(budget time.Duration, atLeast int, once func()) int {
	start := time.Now()
	n := 0
	for n < atLeast || time.Since(start)+time.Since(start)/time.Duration(n) <= budget {
		once()
		n++
	}
	return n
}

func (r *run) share(s float64) time.Duration { return time.Duration(float64(r.budget) * s) }

// meanBelow is the mean of the values up to the p-th percentile. The I/O of
// an exact query is heavy-tailed (a typical one reads 300 series, the
// hardest 6000), so a plain mean over 400 queries is carried by a handful and
// moved 15-22% from seed to seed; the hardest tenth is exact_p90_ms's business.
func meanBelow(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:int(math.Ceil(p/100*float64(len(s))))])
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// mixed runs passes on two closed-loop clients, each sending one exact query
// per fifty approximate ones, and returns the best pass's operations per
// second and the pass count. A pass asks the first MixedQ queries of the exact
// list once each, split between the clients, so its op count is fixed and it
// samples the seed's hard and easy queries widely.
func (r *run) mixed(t target) (qps float64, passes int) {
	id, done := r.rec.scope("mixed", r.top, 0)
	defer done()
	onePass := func(exact []query) float64 {
		_, done := r.rec.scope("mixed.pass", id, 0)
		defer done()
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < mixedClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := c; j < len(exact); j += mixedClients {
					for k := 0; k < mixedApprox; k++ {
						q := &r.approxQ[(j*mixedApprox+k)%len(r.approxQ)]
						if res, err := t.approx(q); r.op("mixed approx", err) {
							r.checkApprox("mixed approx", res, nil, r.count)
						}
					}
					if res, err := t.exact(&exact[j]); r.op("mixed exact", err) {
						r.checkExact("mixed exact", res, r.exactAns[j], r.count)
					}
				}
			}(c)
		}
		wg.Wait()
		return float64(len(exact)*(mixedApprox+1)) / time.Since(start).Seconds()
	}
	head := r.exactQ[:r.sh.MixedQ]
	onePass(head[:2*mixedClients]) // warm-up: connections, scheduler
	passes = repeat(r.share(mixedShare), r.sh.MixedPasses, func() {
		qps = max(qps, onePass(head))
	})
	return qps, passes
}

// connect returns where the clients send their queries for handle h: h
// itself, or on the served workload the HTTP server started in front of it.
func (r *run) connect(h *handle, name string) (target, *httpServer, error) {
	if !r.sp.HTTP {
		return h, nil, nil
	}
	srv, err := r.serve(h, name)
	if err != nil {
		return nil, nil, err
	}
	return srv, srv, nil
}

// twinQ is the head of the exact list the traced run's side measurements
// replay; they compare against the same head of the main exact phase.
func (r *run) twinQ() []query { return r.exactQ[:r.sh.TwinQ] }

// heapLive is the Go heap still in use after a collection.
func heapLive() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// execute runs the workload and fills r.e2e and r.layer.
func (r *run) execute() error {
	r.top = r.rec.begin("workload."+r.sp.Name, 0, 0)
	defer r.rec.end(r.top)

	genS, err := r.prepare()
	if err != nil {
		return err
	}
	cycles, h, heapMB, err := r.setUp()
	if err != nil {
		return err
	}
	defer func() { h.close() }()
	cfg := r.cycleConfig(r.sp.Cycles - 1)
	if r.rawCheck, err = os.Open(filepath.Join(r.dir, cfg.DataFile)); err != nil {
		return err
	}
	defer r.rawCheck.Close()

	var plainMean float64
	if r.traced {
		if h, plainMean, err = r.untracedBaseline(h, cfg); err != nil {
			return err
		}
	}
	tgt, srv, err := r.connect(h, cfg.Name)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.stop()
	}

	cache0 := h.cacheStats()
	exact := r.bestOfPasses("exact", r.share(exactShare), r.sh.ExactPasses, r.sh.HeadQ, r.exactQ, tgt.exact, r.exactCheck)
	cache1 := h.cacheStats()
	approx, ratio := r.approxPhase(tgt)
	if srv != nil {
		r.sameAsDirect(h, exact, approx)
	}
	mixedQPS, mixedPasses := r.mixed(tgt)

	last := cycles[len(cycles)-1]
	col := func(f func(cycleOut) float64) []float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return xs
	}
	totals, builds := col(func(c cycleOut) float64 { return c.total }), col(func(c cycleOut) float64 { return c.build })
	nq, na := float64(len(r.exactQ)), float64(len(r.approxQ))
	r.e2e = map[string]float64{
		"setup_s":                  median(totals),
		"build_s":                  median(builds),
		"exact_mean_ms":            mean(exact.best),
		"exact_p90_ms":             percentile(exact.best, 90),
		"approx_p50_ms":            percentile(approx.best, 50),
		"approx_dist_ratio":        ratio,
		"mixed_qps":                mixedQPS,
		"exact_read_kb_per_query":  meanBelow(exact.last.readKB, 90),
		"write_amp":                float64(last.buildIO.BytesWritten) / float64(last.rawBytes),
		"index_bytes_per_raw_byte": float64(last.indexBytes) / float64(int64(r.sp.N)*recBytes),
		"live_heap_mb":             heapMB,
	}
	r.knobs["exact_passes"] = exact.passes
	r.knobs["approx_passes"] = approx.passes
	r.knobs["mixed_passes"] = mixedPasses
	r.knobs["mixed_ops_per_pass"] = r.sh.MixedQ * (mixedApprox + 1)
	r.knobs["cycle_total_s"] = totals
	r.knobs["cycle_build_s"] = builds
	r.knobs["exact_tail_percentile"] = tailPercentile(len(r.exactQ))

	// Counters the program already exposes cost nothing to read, so they
	// are part of every run; the timed probes further down are not.
	var visS, visL, apxS int64
	for _, res := range exact.last.results {
		visS += res.VisitedSeries
		visL += res.VisitedLeaves
	}
	for _, res := range approx.last.results {
		apxS += res.VisitedSeries
	}
	r.layer = map[string]float64{
		"storage.build.bytes_read":             float64(last.buildIO.BytesRead),
		"storage.build.bytes_written":          float64(last.buildIO.BytesWritten),
		"storage.build.rand_writes":            float64(last.buildIO.RandWrites),
		"storage.exact.rand_reads_per_query":   float64(exact.last.io.RandReads) / nq,
		"storage.exact.seq_reads_per_query":    float64(exact.last.io.SeqReads) / nq,
		"storage.approx.reads_per_query":       float64(approx.last.io.RandReads+approx.last.io.SeqReads) / na,
		"core.exact.visited_series_per_query":  float64(visS) / nq,
		"core.exact.visited_leaves_per_query":  float64(visL) / nq,
		"core.exact.pruned_share":              1 - float64(visS)/nq/float64(r.sp.N),
		"core.approx.visited_series_per_query": float64(apxS) / na,
		"manifest.open_ms":                     1000 * median(col(func(c cycleOut) float64 { return c.open })),
		"manifest.reopen_first_exact_ms":       1000 * median(col(func(c cycleOut) float64 { return c.firstExact })),
		"process.peak_rss_mb":                  peakRSSMB(),
		"process.gc_pause_ms":                  float64(exact.last.gcPauseNS) / 1e6,
		"process.allocs_per_exact_query":       float64(exact.last.mallocs) / nq,
		"process.alloc_kb_per_approx_query":    float64(approx.last.allocBytes) / 1024 / na,
		"process.exact_raw_p99_ms":             percentile(exact.raw, 99),
		"dataset.gen_s":                        genS,
	}
	h.describe(r.layer)
	if lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses); lookups > 0 {
		r.layer["blockcache.hit_ratio"] = float64(cache1.Hits-cache0.Hits) / lookups
		r.layer["blockcache.evictions_per_query"] = float64(cache1.Evictions-cache0.Evictions) / (float64(exact.passes)*nq + float64(r.sh.HeadQ))
		r.layer["blockcache.resident_mb"] = float64(cache1.Bytes) / (1 << 20)
	}
	if in := last.ingest; in != nil {
		perCycle := make([][]float64, len(cycles))
		for i, c := range cycles {
			perCycle[i] = c.ingest.insertMS
		}
		best := bestOf(perCycle) // per batch index, over the C repeats of the whole ingest
		r.layer["lsm.insert_p50_ms"] = percentile(best, 50)
		r.layer["lsm.insert_p95_ms"] = percentile(best, 95)
		r.layer["lsm.ingest_exact_p50_ms"] = percentile(in.exactMS, 50)
		r.layer["lsm.ingest_approx_p50_ms"] = percentile(in.approxMS, 50)
		r.layer["lsm.runs_final"] = float64(in.runs)
	}
	if srv != nil {
		srv.describe(r)
	}
	if !r.traced {
		return nil
	}

	r.layer["storage.sync_count"] = float64(last.buildTimes.syncs)
	r.layer["storage.build.write_s"] = float64(last.buildTimes.writeNS) / 1e9
	r.layer["storage.build.sync_s"] = float64(last.buildTimes.syncNS) / 1e9
	r.layer["storage.exact.read_ms_per_query"] = float64(exact.last.times.readNS) / 1e6 / nq
	if last.ingest != nil {
		r.layer["lsm.bytes_written.wal"] = float64(last.buildTimes.wal)
		r.layer["lsm.bytes_written.runs"] = float64(last.buildTimes.runs)
		r.layer["lsm.bytes_written.raw"] = float64(last.buildTimes.raw)
	}
	r.layer["trace.overhead_pct"] = 100 * (mean(exact.best[:r.sh.TwinQ]) - plainMean) / plainMean
	if err := r.probes(); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	if err := r.twins(h, srv, exact, approx, cfg); err != nil {
		return fmt.Errorf("twins: %w", err)
	}
	return nil
}

// prepare generates the inputs from the seed and computes the oracle's
// answers in one sequential pass over the raw files, before any timing.
func (r *run) prepare() (genS float64, err error) {
	t := time.Now()
	if r.in, err = generate(r.osf, r.sp, r.sh, r.seed); err != nil {
		return 0, err
	}
	genS = time.Since(t).Seconds()
	r.exactQ, r.approxQ, r.ingestQ = asQueries(r.in.exactQ), asQueries(r.in.approxQ), asQueries(r.in.ingestQ)

	files := []string{r.in.dataFile}
	oq := make([]oracleQuery, 0, len(r.exactQ)+len(r.ingestQ))
	for _, q := range r.in.exactQ {
		oq = append(oq, oracleQuery{q, int64(r.sp.N)})
	}
	if r.sp.Bulk > 0 {
		files = append(files, r.in.streamFile)
		for g, q := range r.in.ingestQ {
			oq = append(oq, oracleQuery{q, int64(r.sp.Bulk + (g+1)*r.sp.QueryEvery*r.sp.Batch)})
		}
	}
	ans, err := bruteForce(r.dir, files, oq)
	if err != nil {
		return 0, err
	}
	r.exactAns, r.ingestAns = ans[:len(r.exactQ)], ans[len(r.exactQ):]
	return genS, nil
}

// setUp runs the C cycles. The last cycle's handle is returned open, with
// the Go heap it holds: live heap after the cycle minus live heap before, so
// that the benchmark's own lists are not counted.
func (r *run) setUp() (cycles []cycleOut, h *handle, heapMB float64, err error) {
	id, done := r.rec.scope("cycles", r.top, 0)
	defer done()
	var before float64
	for i := 0; i < r.sp.Cycles; i++ {
		if h != nil && !r.op("close", h.close()) {
			return nil, nil, 0, errors.New("close between cycles failed")
		}
		if err := r.cleanDir(); err != nil {
			return nil, nil, 0, err
		}
		if i == r.sp.Cycles-1 {
			h = nil // or the closed handle's arrays would still be reachable, and counted
			before = heapLive()
		}
		var c cycleOut
		if c, h, err = r.cycle(i, id); err != nil {
			return nil, nil, 0, fmt.Errorf("cycle %d: %w", i, err)
		}
		cycles = append(cycles, c)
	}
	return cycles, h, (heapLive() - before) / (1 << 20), nil
}

// untracedBaseline is the traced run's yardstick: the head of the exact list
// through a handle on the bare storage with no recorder, before the traced
// phases, so that the wrapper's and the spans' cost is a number. It returns
// the handle reopened on the timed storage.
func (r *run) untracedBaseline(h *handle, cfg coconut.Config) (*handle, float64, error) {
	if !r.op("close", h.close()) {
		return nil, 0, errors.New("close before the untraced exact passes failed")
	}
	plain := cfg
	plain.Storage = r.osf
	h, err := openIndex(r.sp.Variant, plain)
	if !r.op("open", err) {
		return nil, 0, err
	}
	tgt, srv, err := r.connect(h, plain.Name)
	if err != nil {
		h.close()
		return nil, 0, err
	}
	rec := r.rec
	r.rec = nil
	ph := r.bestOfPasses("exact.plain", r.share(exactShare)/4, 2, r.sh.TwinQ, r.twinQ(), tgt.exact, r.exactCheck)
	r.rec = rec
	if srv != nil {
		srv.stop()
	}
	if !r.op("close", h.close()) { // one handle at a time on an index
		return nil, 0, errors.New("close after the untraced exact passes failed")
	}
	h, err = openIndex(r.sp.Variant, cfg)
	if !r.op("open", err) {
		return nil, 0, err
	}
	return h, mean(ph.best), nil
}

func (r *run) exactCheck(i int, res coconut.Result) {
	r.checkExact("exact", res, r.exactAns[i], r.count)
}

// approxPhase measures answer quality (the exact list asked approximately,
// untimed) and approximate latency (best-of-R over the approx list).
// Answers are read back from the raw file the first time a query is asked;
// later passes check the position and, where known, the exact lower bound.
func (r *run) approxPhase(tgt target) (phaseOut, float64) {
	buf, got := make([]byte, recBytes), make([]float64, seriesLen)
	checker := func(qs []query, want []answer) func(i int, res coconut.Result) {
		seen := make([]bool, len(qs))
		return func(i int, res coconut.Result) {
			var w *answer
			if want != nil {
				w = &want[i]
			}
			r.checkApprox("approx", res, w, r.count)
			if seen[i] || res.Position < 0 || res.Position >= r.count {
				return
			}
			seen[i] = true
			if err := readSeries(r.rawCheck, res.Position, buf, got); err != nil {
				r.fail("approx: reading series %d back: %v", res.Position, err)
				return
			}
			if d := math.Sqrt(sqDist(qs[i].s, got, math.Inf(1))); math.Abs(d-res.Distance) > distTol {
				r.fail("approx: series %d is at %.12g, answer says %.12g", res.Position, d, res.Distance)
			}
		}
	}
	quality := r.pass("approx.quality", r.top, r.exactQ, tgt.approx, checker(r.exactQ, r.exactAns))
	var ratio float64
	for i, res := range quality.results {
		ratio += res.Distance / r.exactAns[i].dist
	}
	approx := r.bestOfPasses("approx", r.share(approxShare), r.sh.ApproxPasses, len(r.approxQ), r.approxQ, tgt.approx, checker(r.approxQ, nil))
	return approx, ratio / float64(len(r.exactQ))
}

// sameAsDirect holds the served workload to this: an HTTP answer equals the
// direct call's, for every approximate query and the head of the exact list
// (all exact answers were already checked against the oracle).
func (r *run) sameAsDirect(h *handle, exact, approx phaseOut) {
	same := func(what string, i int, http coconut.Result, direct coconut.Result, err error) {
		if r.op("direct "+what, err) && (direct.Position != http.Position || direct.Distance != http.Distance) {
			r.fail("%s %d: HTTP says #%d at %v, the handle says #%d at %v", what, i, http.Position, http.Distance, direct.Position, direct.Distance)
		}
	}
	for i := range r.exactQ[:r.sh.HeadQ] {
		d, err := h.exact(&r.exactQ[i])
		same("exact", i, exact.last.results[i], d, err)
	}
	for i := range r.approxQ {
		d, err := h.approx(&r.approxQ[i])
		same("approx", i, approx.last.results[i], d, err)
	}
}

// cycleConfig is the Config of cycle i's index. On stream_lsm each cycle has
// its own copy of the raw file, because Insert appends to it.
func (r *run) cycleConfig(i int) coconut.Config {
	dataFile := r.in.dataFile
	if r.sp.Bulk > 0 {
		dataFile = fmt.Sprintf("data%d.bin", i)
	}
	cfg := coconut.Config{
		Storage: r.fs, Name: fmt.Sprintf("ix%d", i), DataFile: dataFile, SeriesLen: seriesLen,
		Workers: buildWorkers, QueryWorkers: queryWorkers,
		Partitions: r.sp.Partitions, CacheBytes: r.sp.CacheBytes,
	}
	if r.sp.MemRecords > 0 {
		cfg.MemoryBudget = 24 * int64(r.sp.MemRecords)
	}
	return cfg
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
