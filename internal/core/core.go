// Package core implements Coconut, the paper's contribution: data series
// indexes built bottom-up over SORTABLE summarizations (invSAX — z-order
// interleaved SAX bits).
//
// Both variants share the same pipeline (§4): one sequential pass over the
// raw file computes each series' invSAX key, the (key, position[, raw])
// records are externally sorted under the memory budget, and the index is
// bulk-loaded from the sorted stream:
//
//   - Coconut-Trie (Algorithm 2) groups the sorted records into an
//     iSAX-style prefix trie whose leaves are contiguous ranges of the
//     sorted run, which is written once and is the leaf file
//     (insertBottomUp + CompactSubtree — realized here as the equivalent
//     recursive partitioning of the sorted key range along interleaved
//     bits, which yields exactly the maximal prefix-aligned leaf groups).
//   - Coconut-Tree (Algorithm 3) feeds the sorted stream into the
//     UB-tree-style B+-tree bulk loader: a balanced, contiguous index whose
//     leaves are packed to the configured fill factor.
//
// The "-Full" (materialized) variants carry the raw series through the sort
// and into the leaves; the plain variants store only (key, position) and
// fetch raw data from the dataset file at query time.
package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// Options configures a build.
type Options struct {
	// FS hosts the index files and the raw dataset file.
	FS storage.FS
	// Name is the base name for index files.
	Name string
	// S fixes the summarization scheme.
	S *summary.Summarizer
	// RawName is the dataset file in raw binary format.
	RawName string
	// RecordsName optionally names a pre-summarized (key, position[, raw])
	// record file to bulk-load from, skipping the summarization pass over
	// the dataset — the partition scatter path. The raw dataset file named
	// by RawName is still opened for query-time fetches.
	RecordsName string
	// Materialized stores raw series inside the index ("-Full" variants).
	Materialized bool
	// LeafCap is the records-per-leaf capacity (paper: 2000).
	LeafCap int
	// FillFactor packs bulk-loaded Tree leaves to this fraction (default 1:
	// "as compactly as possible"; lower it to leave room for updates).
	FillFactor float64
	// MemBudgetBytes is the memory budget M for sorting and buffering.
	MemBudgetBytes int64
	// Workers is the number of concurrent workers used by the bulk-load
	// external sort (0 means runtime.NumCPU()). The built index is
	// byte-identical for any value.
	Workers int
	// QueryWorkers is the fan-out of a SINGLE query: the SIMS lower-bound
	// computation and the candidate-verification scan are sharded across
	// this many goroutines (0 means runtime.GOMAXPROCS(0); the effective
	// count is clamped to the work available, never degenerating to 1).
	// ExactSearch returns identical (Pos, Dist) for any value; only the
	// Visited* counters and the I/O interleaving vary, so experiments that
	// compare I/O traces pin QueryWorkers to 1.
	QueryWorkers int
	// Fanout is the B+-tree internal fan-out (Tree variant, default 64).
	Fanout int
	// ApproxWindow caps how many records around the query's sort position
	// a NON-materialized approximate search fetches from the raw file
	// (scaled by radius+1) — the paper's "all data series in a specific
	// radius from this specific point ... usually a disk page" (§4.3).
	// Materialized indexes scan whole leaves instead (the raw data is
	// already there). Default 32.
	ApproxWindow int
	// Checksums writes the index's block files (B+-tree pages, the trie's
	// leaf run) in the checksummed-block format and maintains a per-record
	// CRC sidecar for the raw dataset, making every read path detect
	// bit rot as storage.ErrCorruptData instead of serving wrong bytes.
	// Like Materialized, the flag is a property of the stored bytes: it is
	// recorded in the manifest and the Open paths adopt the stored value.
	Checksums bool
	// RawSums optionally supplies an externally owned raw-dataset CRC
	// sidecar (the partition layer's: the parent owns the shared raw file
	// and its sidecar, children verify through the shared handle). When
	// nil and Checksums is set, the index builds and maintains its own.
	RawSums *storage.RecordSums
}

func (o *Options) validate() error {
	switch {
	case o.FS == nil:
		return errors.New("core: nil FS")
	case o.Name == "":
		return errors.New("core: empty name")
	case o.S == nil:
		return errors.New("core: nil summarizer")
	case o.RawName == "":
		return errors.New("core: empty raw file name")
	case o.LeafCap < 2:
		return errors.New("core: leaf capacity must be at least 2")
	}
	if o.MemBudgetBytes <= 0 {
		o.MemBudgetBytes = 64 << 20
	}
	if o.FillFactor <= 0 || o.FillFactor > 1 {
		o.FillFactor = 1
	}
	if o.Fanout < 2 {
		o.Fanout = 64
	}
	if o.ApproxWindow <= 0 {
		o.ApproxWindow = 32
	}
	return nil
}

// recordSize returns the sort/leaf record size for the configuration.
func (o *Options) recordSize() int {
	n := summary.KeySize + 8
	if o.Materialized {
		n += series.EncodedSize(o.S.Params().SeriesLen)
	}
	return n
}

// Result is a search answer.
type Result struct {
	// Pos is the ordinal of the answer in the raw file (-1 when empty).
	Pos int64
	// Dist is the Euclidean distance to the query.
	Dist float64
	// VisitedRecords counts series whose true distance was computed
	// (Figure 9f).
	VisitedRecords int64
	// VisitedLeaves counts leaf pages read.
	VisitedLeaves int64
}

// Shape describes how an index lays its records out on the device: leaf
// pages and their mean occupancy in [0,1] for the tree and the trie, sorted
// runs for the LSM. The fields a variant has no notion of stay zero.
type Shape struct {
	Leaves   int
	LeafFill float64
	Runs     int
}

// encodeRecord packs (key, pos[, raw series]) into dst.
func encodeRecord(dst []byte, key summary.Key, pos int64, raw []byte) {
	copy(dst, key[:])
	binary.LittleEndian.PutUint64(dst[summary.KeySize:], uint64(pos))
	if raw != nil {
		copy(dst[summary.KeySize+8:], raw)
	}
}

// decodeRecord unpacks a record; raw aliases rec's storage when present.
func decodeRecord(rec []byte, materialized bool) (key summary.Key, pos int64, raw []byte) {
	copy(key[:], rec[:summary.KeySize])
	pos = int64(binary.LittleEndian.Uint64(rec[summary.KeySize:]))
	if materialized {
		raw = rec[summary.KeySize+8:]
	}
	return key, pos, raw
}

// SummaryRecordReader streams the (invSAX, position[, raw]) sort records of
// a raw dataset file — phase one of Algorithms 2 and 3 (lines 2-8) — as a
// batched pipeline: a producer goroutine reads raw series in blocks, and
// workers goroutines compute the invSAX keys and record encodings
// concurrently (each with its own decode and key scratch, so the per-series
// cost is allocation-free; in materialized mode the raw bytes are copied
// straight from the input block, never re-encoded). Blocks are drained in
// input order, so the stream is byte-identical for any worker count.
//
// It is the only pass a bulk load makes over the raw file: a non-nil sums
// (from storage.NewRecordSums on the same file) has its per-record CRCs
// filled from the bytes each key is computed from, complete once the stream
// has been read to EOF. A torn trailing partial record is not part of the
// dataset and is left unread.
//
// The caller must Close the returned reader when done with it, including
// when the downstream consumer (the external sort) fails early. Coconut-LSM
// and the partition scatter share this source for their bulk loads.
func SummaryRecordReader(s *summary.Summarizer, raw storage.File, materialized bool, workers int, sums *storage.RecordSums) (*extsort.TransformReader, error) {
	p := s.Params()
	inSize := series.EncodedSize(p.SeriesLen)
	outSize := summary.KeySize + 8
	if materialized {
		outSize += inSize
	}
	size, err := raw.Size()
	if err != nil {
		return nil, err
	}
	records := size / int64(inSize)
	if sums != nil && sums.Records() != records {
		return nil, fmt.Errorf("core: raw sidecar sized for %d records, %q holds %d", sums.Records(), raw.Name(), records)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	type scratch struct {
		ser series.Series
		ks  summary.KeyScratch
	}
	scratches := make([]scratch, workers)
	for i := range scratches {
		scratches[i].ser = make(series.Series, p.SeriesLen)
	}
	return extsort.NewTransformReader(extsort.TransformConfig{
		In:            storage.NewSequentialReader(raw, 0, records*int64(inSize), 0),
		InRecordSize:  inSize,
		OutRecordSize: outSize,
		Workers:       workers,
		Transform: func(worker int, in, out []byte, base int64) error {
			sc := &scratches[worker]
			if sums != nil {
				sums.Fill(base, in)
			}
			n := len(in) / inSize
			for i := 0; i < n; i++ {
				rawRec := in[i*inSize : (i+1)*inSize]
				series.DecodeInto(rawRec, sc.ser)
				key, err := s.KeyOfScratch(sc.ser, &sc.ks)
				if err != nil {
					return err
				}
				rec := out[i*outSize : (i+1)*outSize]
				if materialized {
					encodeRecord(rec, key, base+int64(i), rawRec)
				} else {
					encodeRecord(rec, key, base+int64(i), nil)
				}
			}
			return nil
		},
	})
}

// BuildSource is the unsorted (key, position[, raw]) record stream a bulk
// load consumes, plus the one decision every build entry point shares: who
// computes and persists the raw-dataset CRC sidecar of a checksummed build.
// Read it to EOF (the external sort, or the partition scatter), then call
// Finish.
type BuildSource struct {
	io.Reader
	close func() error
	cfg   BuildSourceConfig
	sums  *storage.RecordSums
	owned bool
}

// BuildSourceConfig names the dataset a BuildSource streams. Raw must be open
// on RawName. RecordsName, when set, names a pre-summarized record file (the
// partition scatter's output for one child) streamed instead of summarizing
// Raw. RawSums is the externally owned sidecar a checksummed partition child
// adopts; without one a checksummed build owns its sidecar.
type BuildSourceConfig struct {
	FS           storage.FS
	S            *summary.Summarizer
	Raw          storage.File
	RawName      string
	RecordsName  string
	Materialized bool
	Checksums    bool
	Workers      int
	RawSums      *storage.RecordSums
}

// OpenBuildSource opens the record stream of one bulk load. An owned sidecar
// is computed inside the summarization pass (SummaryRecordReader), so the raw
// file is read once; an existing sidecar file may describe a replaced dataset
// and is never reused.
func OpenBuildSource(cfg BuildSourceConfig) (*BuildSource, error) {
	b := &BuildSource{cfg: cfg}
	if cfg.Checksums {
		b.sums, b.owned = cfg.RawSums, cfg.RawSums == nil
	}
	if cfg.RecordsName != "" {
		rf, err := cfg.FS.Open(cfg.RecordsName)
		if err != nil {
			return nil, err
		}
		b.Reader, b.close = storage.NewSequentialReader(rf, 0, -1, 0), rf.Close
		return b, nil
	}
	var fill *storage.RecordSums
	if b.owned {
		var err error
		if fill, err = storage.NewRecordSums(cfg.FS, cfg.RawName, series.EncodedSize(cfg.S.Params().SeriesLen), cfg.Raw); err != nil {
			return nil, err
		}
		b.sums = fill
	}
	src, err := SummaryRecordReader(cfg.S, cfg.Raw, cfg.Materialized, cfg.Workers, fill)
	if err != nil {
		return nil, err
	}
	b.Reader, b.close = src, src.Close
	return b, nil
}

// Finish closes the stream and, when the consumer succeeded (err == nil) and
// the build owns its sidecar, persists and fsyncs it — before any manifest
// can reference the build. It returns the sidecar the index serves raw reads
// through (nil without checksums) and whether the index owns it.
func (b *BuildSource) Finish(err error) (*storage.RecordSums, bool, error) {
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil || !b.owned {
		return b.sums, b.owned, err
	}
	if b.sums == nil {
		// A record file without an adopted sidecar: no summarization pass
		// to ride on, so the sidecar costs its own.
		b.sums, err = storage.BuildRecordSums(b.cfg.FS, b.cfg.RawName, series.EncodedSize(b.cfg.S.Params().SeriesLen))
	} else {
		err = b.sums.Flush()
	}
	return b.sums, b.owned, err
}

// ErrEmptyIndex is returned when searching an index with no records.
var ErrEmptyIndex = errors.New("core: index is empty")

// sortRecords externally sorts the build's record stream (see BuildSource)
// into outName, with wrapOut and tee as in extsort.Config, and settles the
// raw-dataset CRC sidecar.
func sortRecords(opt *Options, raw storage.File, outName string,
	wrapOut func(storage.File) (storage.File, error), tee func(rec []byte),
) (sums *storage.RecordSums, owned bool, err error) {
	src, err := OpenBuildSource(BuildSourceConfig{
		FS: opt.FS, S: opt.S, Raw: raw, RawName: opt.RawName, RecordsName: opt.RecordsName,
		Materialized: opt.Materialized, Checksums: opt.Checksums, Workers: opt.Workers, RawSums: opt.RawSums,
	})
	if err != nil {
		return nil, false, err
	}
	_, err = extsort.Sort(extsort.Config{
		FS:         opt.FS,
		RecordSize: opt.recordSize(),
		Compare:    extsort.CompareKeyPrefix(summary.KeySize),
		MemBudget:  opt.MemBudgetBytes,
		TempPrefix: opt.Name + ".sort",
		Workers:    opt.Workers,
		WrapOut:    wrapOut,
		Tee:        tee,
	}, src, outName)
	return src.Finish(err)
}

// ApproxWindow is one index's contribution to a (possibly cross-partition)
// approximate search: its window candidates below and at-or-above the
// query key under the global record order, where to load any of them from,
// and the I/O accounting for collecting them. See internal/window
// for the semantics that make these contributions composable.
type ApproxWindow struct {
	// Below and Above are the candidates with key < query key (the source's
	// trailing half-window) and key >= query key (its leading half-window).
	Below, Above []window.Cand
	// Raw and Sums are the raw dataset file, and its CRC sidecar if any, that
	// a non-materialized source's candidates are positions in: EvalWindow
	// pins the file for the evaluation and reads each visited record once,
	// verified (what Result.VisitedRecords counts).
	Raw  storage.File
	Sums *storage.RecordSums
	// Fetch, set instead by a materialized source, loads one of its
	// candidates from its own leaves (serial, per-query).
	Fetch window.FetchFunc
	// Leaves counts the leaf pages the window spans (LSM: runs probed).
	Leaves int64
}

// windowCands collects the window contribution of a sorted summary array
// (keys, positions parallel to it — the tree's and the trie's alike): the
// trailing and leading half-windows around q's insertion position, with the
// ordinal range [lo, hi) they span.
func windowCands(opt *Options, keys []summary.Key, positions []int64, q series.Series, radius int) (aw ApproxWindow, lo, hi int, err error) {
	key, err := opt.S.KeyOf(q)
	if err != nil {
		return aw, 0, 0, err
	}
	qPAA, err := opt.S.PAA(q, nil)
	if err != nil {
		return aw, 0, 0, err
	}
	p := opt.S.Params()
	half := opt.ApproxWindow * (radius + 1) / 2
	ins := sort.Search(len(keys), func(i int) bool { return !keys[i].Less(key) })
	lo, hi = max(ins-half, 0), min(ins+half, len(keys))
	aw.Below, aw.Above = make([]window.Cand, 0, ins-lo), make([]window.Cand, 0, hi-ins)
	saxScratch := make(summary.SAX, p.Segments)
	for i := lo; i < hi; i++ {
		sax := summary.DeinterleaveInto(keys[i], p.CardBits, saxScratch)
		c := window.Cand{Key: keys[i], Pos: positions[i], LB: opt.S.MinDistSqPAAToSAX(qPAA, sax), Ord: i}
		if i < ins {
			aw.Below = append(aw.Below, c)
		} else {
			aw.Above = append(aw.Above, c)
		}
	}
	return aw, lo, hi, nil
}

// EvalWindow evaluates a merged approximate window (window.Eval) under ctx,
// with a pooled read buffer: each candidate is loaded from the source its
// Src names, whose raw file stays pinned until the evaluation is over.
func EvalWindow(ctx context.Context, q series.Series, cands []window.Cand, srcs ...ApproxWindow) (pos int64, sqDist float64, visited int64, err error) {
	sc := GetRawScratch(len(q), 1)
	defer PutRawScratch(sc)
	raws := make([]storage.Views, len(srcs))
	for i, src := range srcs {
		if src.Fetch == nil && src.Raw != nil {
			raws[i] = storage.PinViews(src.Raw)
			defer raws[i].Release(&err)
		}
	}
	// The fetches are serial, so a check before each is this phase's
	// cancellation granularity (the sharded verification scans detach
	// instead; see shard.Scan).
	return window.Eval(q, cands, func(c window.Cand, buf []byte) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if src := &srcs[c.Src]; src.Fetch != nil {
			return src.Fetch(c, buf)
		}
		return ReadRawAt(raws[c.Src], srcs[c.Src].Sums, c.Pos, buf)
	}, sc.Buf)
}

// search evaluates aw alone, trimmed to half records a side: the approximate
// answer (Dist SQUARED) of the index that contributed it.
func (aw ApproxWindow) search(ctx context.Context, q series.Series, half int) (Result, error) {
	pos, sq, visited, err := EvalWindow(ctx, q, window.Merge(aw.Below, aw.Above, half), aw)
	return Result{Pos: pos, Dist: sq, VisitedRecords: visited, VisitedLeaves: aw.Leaves}, err
}

// leafOfOrd locates the leaf (by directory position) holding the record
// with global ordinal ord, given each leaf's starting ordinal.
func leafOfOrd(bases []int, ord int) int {
	return sort.Search(len(bases), func(i int) bool { return bases[i] > ord }) - 1
}

// InsertRec is one pre-summarized insert record: the partition layer
// writes the raw dataset bytes once, assigns global arrival-order
// positions, and routes these to the owning partition's index.
type InsertRec struct {
	// Key is the series' invSAX key; Pos its ordinal in the dataset file.
	Key summary.Key
	Pos int64
	// Raw holds the encoded series bytes; required when materialized.
	Raw []byte
}

// ReadRawAt returns the encoded series at ordinal pos of a raw dataset file —
// a view of it, or buf, exactly one record long, filled — verified against
// the CRC sidecar when there is one: rot surfaces as storage.ErrCorruptData,
// never as a wrong distance.
func ReadRawAt(raw storage.Views, sums *storage.RecordSums, pos int64, buf []byte) ([]byte, error) {
	enc, err := readRawRun(raw, pos, 1, buf)
	if err != nil {
		return nil, err
	}
	return enc, verifyRaw(sums, pos, enc)
}

// readRawRun returns the n file-adjacent records starting at ordinal pos,
// len(buf) bytes in all, from one read: the one primitive every raw fetch
// goes through.
func readRawRun(raw storage.Views, pos int64, n int, buf []byte) ([]byte, error) {
	enc, err := raw.Read(pos*int64(len(buf)/n), buf)
	if err != nil {
		return nil, fmt.Errorf("core: raw series %d (run of %d): %w", pos, n, err)
	}
	return enc, nil
}

func verifyRaw(sums *storage.RecordSums, pos int64, enc []byte) error {
	if sums == nil {
		return nil
	}
	if err := sums.Verify(pos, enc); err != nil {
		return fmt.Errorf("core: raw series %d: %w", pos, err)
	}
	return nil
}

// rawRunCap is the most file-adjacent candidates the verification scan
// fetches with one read: past a handful the read is no longer a candidate's
// cost, and a bound improvement inside a run wastes at most this many records.
const rawRunCap = 16

// RawScratch is the buffer one goroutine reads raw series through.
type RawScratch struct{ Buf []byte }

// The pool is process-wide, not per index handle, so that an idle index
// holds no scratch at all: a garbage collection empties it.
var rawScratchPool = sync.Pool{New: func() any { return new(RawScratch) }}

// GetRawScratch takes a scratch of records encoded series of seriesLen
// points from the pool: rawRunCap for scanRaw, one for every fetch that
// never coalesces. A verification shard takes one for its whole range and
// puts it back itself, so one abandoned by a cancelled query keeps it until
// it is done.
func GetRawScratch(seriesLen, records int) *RawScratch {
	sc := rawScratchPool.Get().(*RawScratch)
	n := records * series.EncodedSize(seriesLen)
	if cap(sc.Buf) < n {
		sc.Buf = make([]byte, n)
	}
	sc.Buf = sc.Buf[:n]
	return sc
}

// PutRawScratch returns sc to the pool.
func PutRawScratch(sc *RawScratch) { rawScratchPool.Put(sc) }

// recordSquaredDistance computes the true SQUARED distance from q to a leaf
// record of either index — over the raw bytes a materialized record carries,
// else over the series its position names in the raw file. Search state
// stays in squared space end to end; only the public entry points take a
// square root (finishResult).
func recordSquaredDistance(opt *Options, raw storage.Views, sums *storage.RecordSums, q series.Series, rec []byte, sc *RawScratch) (int64, float64, error) {
	_, pos, enc := decodeRecord(rec, opt.Materialized)
	if enc == nil {
		var err error
		if enc, err = ReadRawAt(raw, sums, pos, sc.Buf); err != nil {
			return 0, 0, err
		}
	}
	sq, _ := series.SquaredEDEarlyAbandonEncoded(q, enc, math.Inf(1))
	return pos, sq, nil
}

// leafSquaredDistance is recordSquaredDistance for the scans only a
// materialized index runs: the record carries its series.
func leafSquaredDistance(q series.Series, rec []byte) (int64, float64) {
	_, pos, enc := decodeRecord(rec, true)
	sq, _ := series.SquaredEDEarlyAbandonEncoded(q, enc, math.Inf(1))
	return pos, sq
}

// simsVerify is the SIMS verification phase the tree and the trie share:
// one fused lower-bound pass over the sorted summary array (keys, positions
// parallel to it) keeps the candidates under the seed res and the shared
// bound — the query's own when monolithic, the cross-partition one when
// scatter-gathered — and the survivors are verified against the raw file
// or, when materialized, by the index's own walk over its leaves.
func simsVerify(ctx context.Context, opt *Options, q series.Series, keys []summary.Key, positions []int64, res Result, bound *shard.BSF,
	raw storage.File, sums *storage.RecordSums,
	overLeaves func(context.Context, series.Series, []summary.Cand, Result, *shard.BSF) (Result, error),
) (Result, error) {
	pass, err := opt.S.NewPass(q)
	if err != nil {
		return res, err
	}
	limit := bound.Limit(res.Dist)
	if opt.Materialized {
		pass.Cands = pass.Table.Filter(pass.Cands, keys, nil, limit, opt.QueryWorkers)
		res, err = overLeaves(ctx, q, pass.Cands, res, bound)
	} else {
		pass.Cands = pass.Table.Filter(pass.Cands, keys, positions, limit, opt.QueryWorkers)
		var visited int64
		res.Pos, res.Dist, visited, err = VerifyRaw(ctx, raw, sums, q, pass.Cands, res.Pos, res.Dist, bound, opt.QueryWorkers)
		res.VisitedRecords += visited
	}
	if ctx.Err() == nil {
		pass.Release()
	}
	return res, err
}

// VerifyRaw is the non-materialized SIMS verification scan of every index:
// cands, survivors of the lower-bound pass whose IDs are raw-file positions,
// are put in position order (in place) so the dataset is read strictly
// forward, and the order is cut into contiguous shards across workers. A
// shard runs its candidates through scanRaw, keeping those still under its
// own best-so-far and, strictly, under the shared bound, which lets shards
// prune each other's candidates. It returns the best (position, squared
// distance) found under the seed, else the seed, and the number of series
// measured.
func VerifyRaw(ctx context.Context, f storage.File, sums *storage.RecordSums, q series.Series, cands []summary.Cand,
	seedPos int64, seedDist float64, bound *shard.BSF, workers int,
) (pos int64, dist float64, visited int64, err error) {
	slices.SortFunc(cands, func(a, b summary.Cand) int { return cmp.Compare(a.ID, b.ID) })
	pos, dist, visited, _, err = shard.ScanReduce(ctx, workers, len(cands), seedPos, seedDist, func(r shard.Range, local *shard.Outcome, cancelled func() bool) (err error) {
		// The abandon limit is the exact squared best-so-far, so it is tight.
		local.VisitedRecords, err = scanRaw(f, sums, q, cands[r.Lo:r.Hi], cancelled,
			func(lb float64) (float64, bool) { return local.Dist, !(lb >= local.Dist || bound.Prunes(lb)) },
			func(pos int64, sq float64) {
				if sq < local.Dist {
					local.Dist, local.Pos = sq, pos
					bound.Lower(sq)
				}
			})
		return err
	})
	return pos, dist, visited, err
}

// scanRaw is the one raw-candidate scanner: a shard of position-sorted
// candidates (IDs are raw-file positions) fetched, checked and measured
// against q. admit says whether a candidate with lower bound lb is still
// under the scan's bounds and, if so, the limit its distance may abandon at;
// found takes every distance that completed under its limit and may tighten
// what admit answers next. Candidates adjacent in the file and admitted when
// the run is formed, up to rawRunCap, are fetched with one read; each is
// then admitted again in order, so one pruned by an improvement inside its
// own run is skipped as if never fetched, and every other record is verified
// against the CRC sidecar before its distance is taken — straight from the
// encoded bytes, which are the file's own mapped pages when it offers views
// (pinned here, once per scan: a shard detached by a cancelled query may
// outlive the index's Close). It returns the number of distances taken.
func scanRaw(f storage.File, sums *storage.RecordSums, q series.Series, cands []summary.Cand, cancelled func() bool,
	admit func(lb float64) (limit float64, ok bool), found func(pos int64, sq float64),
) (visited int64, err error) {
	admitted := func(c summary.Cand) bool { _, ok := admit(c.LB); return ok }
	recSize := series.EncodedSize(len(q))
	sc := GetRawScratch(len(q), rawRunCap)
	defer PutRawScratch(sc)
	raw := storage.PinViews(f)
	defer raw.Release(&err)
	for i := 0; i < len(cands) && !cancelled(); {
		if !admitted(cands[i]) {
			i++
			continue // pruned by a best-so-far improvement since collection
		}
		first, n := cands[i].ID, 1
		for n < rawRunCap && i+n < len(cands) && cands[i+n].ID == first+int64(n) && admitted(cands[i+n]) {
			n++
		}
		buf, err := readRawRun(raw, first, n, sc.Buf[:n*recSize])
		if err != nil {
			return visited, err
		}
		for k, c := range cands[i : i+n] {
			limit, ok := admit(c.LB)
			if !ok {
				continue
			}
			enc := buf[k*recSize:][:recSize]
			if err := verifyRaw(sums, c.ID, enc); err != nil {
				return visited, err
			}
			visited++
			if sq, ok := series.SquaredEDEarlyAbandonEncoded(q, enc, limit); ok {
				found(c.ID, sq)
			}
		}
		i += n
	}
	return visited, nil
}

// leafCands splits index-ordered candidates (IDs are ordinals of the sorted
// summary array, as Filter emits them) at ordinal end: those before it —
// the candidates of the leaf ending there, once the earlier leaves' are
// consumed — and the rest.
func leafCands(cands []summary.Cand, end int) (leaf, rest []summary.Cand) {
	n := 0
	for n < len(cands) && cands[n].ID < int64(end) {
		n++
	}
	return cands[:n], cands[n:]
}

// candsFrom skips the candidates before ordinal start: where a shard of a
// leaf scan begins consuming the shared candidate list.
func candsFrom(cands []summary.Cand, start int) []summary.Cand {
	i := sort.Search(len(cands), func(i int) bool { return cands[i].ID >= int64(start) })
	return cands[i:]
}

// AttachRawSums attaches the raw-dataset CRC sidecar when a checksummed
// index — tree, trie or LSM — is opened: the externally owned handle when the
// caller supplied one (owned=false), or the index's own, loaded over raw
// (storage.LoadRecordSums: a torn trailing partial record is excluded by its
// floor division, exactly like WAL replay).
func AttachRawSums(fs storage.FS, rawName string, s *summary.Summarizer, checksums bool, shared *storage.RecordSums, raw storage.File,
) (sums *storage.RecordSums, owned bool, err error) {
	if !checksums {
		return nil, false, nil
	}
	if shared != nil {
		return shared, false, nil
	}
	sums, err = storage.LoadRecordSums(fs, rawName, series.EncodedSize(s.Params().SeriesLen), raw)
	if err != nil {
		return nil, false, fmt.Errorf("raw sidecar of %q: %w", rawName, err)
	}
	return sums, true, nil
}

// removeFiles deletes those of names that exist — the undo of a failed
// build. Best effort: the build's own error is what the caller reports.
func removeFiles(fs storage.FS, names ...string) {
	for _, n := range names {
		if fs.Exists(n) {
			_ = fs.Remove(n)
		}
	}
}
