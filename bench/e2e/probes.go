package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"sort"
	"time"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// Micro-probes time a layer's exported functions on this workload's own data,
// from outside, on the traced run. Each reports the best of probeReps
// repeats, for the reason bestOf gives.
const (
	probeReps   = 3
	probeSeries = 10_000 // dataset series the kernels run over
)

// sink keeps the kernels' results alive so the calls are not compiled away.
var sink float64

// bestNS runs f reps times and returns the fastest run divided by per.
func bestNS(per int, f func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := float64(time.Since(t)); d < best {
			best = d
		}
	}
	return best / float64(per), nil
}

func (r *run) probes() error {
	_, done := r.rec.scope("probes", r.top, 0)
	defer done()
	n := probeSeries
	if n > r.sp.N/2 {
		n = r.sp.N / 2
	}
	if r.sp.Bulk > 0 && n > r.sp.Bulk {
		n = r.sp.Bulk
	}
	data, err := loadSeries(filepath.Join(r.dir, r.in.dataFile), 0, n)
	if err != nil {
		return err
	}
	sum, err := summary.NewSummarizer(summary.Params{SeriesLen: seriesLen, Segments: 16, CardBits: 8})
	if err != nil {
		return err
	}

	// summary: the key of a series (build) and the lower bound of a key (SIMS).
	var keys []summary.Key
	if r.layer["summary.keyof_ns"], err = bestNS(n, func() (err error) {
		keys, err = sum.KeysOf(data, 1)
		return err
	}); err != nil {
		return err
	}
	paa, err := sum.PAA(r.exactQ[0].s, nil)
	if err != nil {
		return err
	}
	// As many keys as the workload's SIMS pass walks, by repeating the sample.
	all := make([]summary.Key, 0, r.sp.N)
	for len(all) < r.sp.N {
		all = append(all, keys[:min(len(keys), r.sp.N-len(all))]...)
	}
	bounds := make([]float64, len(all))
	var tbl *summary.MinDistTable
	r.layer["summary.mindist_ns_per_key"], _ = bestNS(len(all), func() error {
		tbl = sum.BuildMinDistTable(paa, tbl)
		tbl.KeysInto(all, bounds, 1)
		return nil
	})

	// series: the distance kernel, whole and abandoning at the true
	// nearest-neighbour distance of the query (what verification does).
	q := r.exactQ[0].s
	r.layer["series.ed_ns"], _ = bestNS(n, func() error {
		for _, s := range data {
			d, _ := series.SquaredED(q, s) // lengths are equal by construction
			sink += d
		}
		return nil
	})
	limit := r.exactAns[0].dist * r.exactAns[0].dist
	r.layer["series.ed_abandon_ns"], _ = bestNS(n, func() error {
		for _, s := range data {
			d, _ := series.SquaredEDEarlyAbandon(q, s, limit)
			sink += d
		}
		return nil
	})

	// extsort: N (key,pos) records through Sort on the workload's storage
	// and memory budget.
	recs := make([]byte, 0, len(all)*runblock.RecordSize)
	for i, k := range all {
		recs = append(recs, k[:]...)
		recs = binary.LittleEndian.AppendUint64(recs, uint64(i))
	}
	budget := r.cycleConfig(0).MemoryBudget
	if budget == 0 {
		budget = 64 << 20 // Config's documented default
	}
	w0 := r.fs.Stats().Snapshot()
	if r.layer["extsort.sort_ns_per_record"], err = bestNS(len(all), func() error {
		_, err := extsort.Sort(extsort.Config{
			FS: r.fs, RecordSize: runblock.RecordSize, Compare: extsort.CompareKeyPrefix(summary.KeySize),
			MemBudget: budget, TempPrefix: "probe.sort", Workers: buildWorkers,
		}, bytes.NewReader(recs), "probe.sorted")
		return err
	}); err != nil {
		return err
	}
	written := r.fs.Stats().Snapshot().Sub(w0).BytesWritten
	r.layer["extsort.bytes_written_per_record"] = float64(written) / probeReps / float64(len(all))

	// runblock: encode, decode and search the same keys in sorted order.
	type rec struct {
		k summary.Key
		p int64
	}
	sorted := make([]rec, len(all))
	for i, k := range all {
		sorted[i] = rec{k, int64(i)}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if c := sorted[i].k.Compare(sorted[j].k); c != 0 {
			return c < 0
		}
		// Equal keys order by the position's little-endian bytes.
		return bits.ReverseBytes64(uint64(sorted[i].p)) < bits.ReverseBytes64(uint64(sorted[j].p))
	})
	if r.layer["runblock.encode_ns_per_record"], err = bestNS(len(sorted), func() error {
		f, err := r.fs.Create("probe.run")
		if err != nil {
			return err
		}
		w := runblock.NewWriter(f, 0)
		for _, e := range sorted {
			if err := w.Add(e.k, e.p); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Finish(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		return err
	}
	f, err := r.fs.Open("probe.run")
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	r.layer["runblock.bytes_per_record"] = float64(size) / float64(len(sorted))
	rd, err := runblock.OpenReader(f, nil) // no cache: every Block call decodes
	if err != nil {
		f.Close()
		return err
	}
	defer rd.Close()
	if r.layer["runblock.decode_ns_per_record"], err = bestNS(len(sorted), func() error {
		for b := 0; b < rd.NumBlocks(); b++ {
			if _, err := rd.Block(b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	const searches = 2000
	if r.layer["runblock.search_ns"], err = bestNS(searches, func() error {
		for i := 0; i < searches; i++ {
			if _, err := rd.Search(sorted[(i*7919)%len(sorted)].k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// blockcache: a resident entry looked up again and again.
	cache := blockcache.New(1 << 20)
	id := cache.NewFileID()
	for b := int64(0); b < 64; b++ {
		cache.Put(id, b, b, 1024)
	}
	const gets = 1_000_000
	r.layer["blockcache.get_ns"], _ = bestNS(gets, func() error {
		for i := int64(0); i < gets; i++ {
			if _, ok := cache.Get(id, i&63); !ok {
				return fmt.Errorf("blockcache: resident block %d missed", i&63)
			}
		}
		return nil
	})

	// storage: sequential read through the checksum layer, verify included.
	const payload = 16 << 20
	inner, err := r.fs.Create("probe.cksum")
	if err != nil {
		return err
	}
	cf, err := storage.CreateChecksumFile(inner, 4096) // the run files' block size
	if err != nil {
		inner.Close()
		return err
	}
	defer cf.Close()
	chunk := make([]byte, 256<<10)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for off := int64(0); off < payload; off += int64(len(chunk)) {
		if _, err := cf.WriteAt(chunk, off); err != nil {
			return err
		}
	}
	if err := cf.Sync(); err != nil {
		return err
	}
	nsPerByte, err := bestNS(payload, func() error {
		for off := int64(0); off < payload; off += int64(len(chunk)) {
			if _, err := cf.ReadAt(chunk, off); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer["storage.checksum_read_mb_s"] = 1e9 / nsPerByte / (1 << 20)
	return nil
}

// twins measures the head of the exact list against differently configured
// indexes, so a layer's contribution reads as a difference: direct calls
// beside HTTP, one partition beside two, two query workers beside one.
func (r *run) twins(h *handle, srv *httpServer, exact, approx phaseOut, cfg coconut.Config) error {
	_, done := r.rec.scope("twins", r.top, 0)
	defer done()
	exactCheck := func(i int, res coconut.Result) { r.checkExact("twin exact", res, r.exactAns[i], r.count) }
	approxCheck := func(i int, res coconut.Result) { r.checkApprox("twin approx", res, nil, r.count) }
	budget := r.share(exactShare) / 4
	qs := r.twinQ()
	main := mean(exact.best[:len(qs)])
	replay := func(name string, t *handle) float64 {
		return mean(r.bestOfPasses(name, budget, 2, len(qs), qs, t.exact, exactCheck).best)
	}

	if srv != nil {
		direct := replay("partition.exact_direct", h)
		da := r.bestOfPasses("partition.approx_direct", r.share(approxShare)/2, 2, len(r.approxQ), r.approxQ, h.approx, approxCheck)
		r.layer["partition.exact_direct_mean_ms"] = direct
		r.layer["partition.approx_direct_p50_ms"] = percentile(da.best, 50)
		r.layer["server.http_overhead_exact_ms"] = main - direct
		r.layer["server.http_overhead_approx_ms"] = percentile(approx.best, 50) - percentile(da.best, 50)

		single := cfg
		single.Name, single.Partitions = "twin", 0
		t, err := buildIndex(r.sp.Variant, single)
		if !r.op("build unpartitioned twin", err) {
			return err
		}
		r.layer["partition.single_exact_mean_ms"] = replay("partition.single_exact", t)
		if !r.op("close", t.close()) {
			return fmt.Errorf("closing the unpartitioned twin failed")
		}

		r.layer["server.open_loop.p50_ms"], r.layer["server.open_loop.p99_ms"], r.layer["server.open_loop.late_share"] =
			r.openLoop(srv, r.budget/3)
		srv.describe(r) // again: the open loop is where shedding would show
	}

	if h.tree != nil {
		// k-NN has no end-to-end number yet; k=10 over the same head.
		kp := r.bestOfPasses("core.knn10", budget, 2, len(qs), qs, func(q *query) (coconut.Result, error) {
			ns, err := h.tree.SearchKNN(q.s, 10)
			if err != nil || len(ns) == 0 {
				return coconut.Result{}, fmt.Errorf("knn: %d neighbours, %v", len(ns), err)
			}
			return coconut.Result{Position: ns[0].Position, Distance: ns[0].Distance}, nil
		}, exactCheck)
		r.layer["core.knn10_p50_ms"] = percentile(kp.best, 50)

		// The handle is reopened with two query workers; same list, same answers.
		if !r.op("close", h.close()) {
			return fmt.Errorf("closing before the 2-worker reopen failed")
		}
		cfg.QueryWorkers = 2
		t, err := openIndex(r.sp.Variant, cfg)
		if !r.op("open with 2 query workers", err) {
			return err
		}
		r.layer["shard.qw2_exact_speedup"] = main / replay("shard.qw2_exact", t)
		if !r.op("close", t.close()) {
			return fmt.Errorf("closing the 2-worker handle failed")
		}
	}
	return nil
}
