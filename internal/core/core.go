// Package core implements Coconut, the paper's contribution: data series
// indexes built bottom-up over SORTABLE summarizations (invSAX — z-order
// interleaved SAX bits).
//
// Coconut-Tree (Algorithm 3) follows the pipeline of §4 into one stored
// form, the leaf run: one sequential pass over the raw file computes each
// series' invSAX key, the (key, position) records (summary.Record) are
// externally sorted under the memory budget (once per build, by the
// partition layer), and the sorted stream is written once, into one dense
// file. Its leaves are the run's checksum blocks, each a disk page of whole
// records, so every leaf but the last is full by construction; an insert
// batch merges into the next generation of the run, so no leaf ever splits.
//
// The paper's Coconut-Trie (Algorithm 2) cut the same run at iSAX prefix
// boundaries instead and answered approximately from the prefix leaf. Here
// every search reads the record window around the query's sort position and
// never a leaf, so a trie answered exactly as a tree over the same records:
// it is not a type of its own.
//
// The "-Full" (materialized) variants store each record's raw series in the
// leaves too. The sort never carries it: it sorts (key, position) records,
// and the leaf-run writer gathers each series by position from the raw file
// — a second, random-order read of it, verified against the raw log — as it
// writes the record (a key-pointer sort, §4). The plain variants store only
// (key, position) and fetch raw data from the dataset file at query time;
// the materialized ones read it from their own run, with the same scan.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

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
	// Records is the sorted record stream a build writes: the partition
	// layer's one sort of the summarization pass, or the share of it below
	// the child's key-range boundary; its Len is the room the build reserves.
	// Open ignores it.
	Records summary.RecordReader
	// Materialized stores raw series inside the index ("-Full" variants),
	// whose queries then read their candidates from the leaf run instead of
	// the raw file (see Store).
	Materialized bool
	// MemBudgetBytes is the memory budget M of the bulk load's sort, which
	// the partition layer runs (DefaultMemBudget when unset).
	MemBudgetBytes int64
	// Workers is the number of concurrent workers used by the bulk load's
	// summarization pass and sort, which the partition layer runs (0 means
	// runtime.GOMAXPROCS(0)). The built index is byte-identical for any
	// value.
	Workers int
	// QueryWorkers is the fan-out of a SINGLE query: the SIMS lower-bound
	// computation and the candidate-verification scan are sharded across
	// this many goroutines (0 means runtime.GOMAXPROCS(0); the effective
	// count is clamped to the work available, never degenerating to 1).
	// ExactSearch returns identical (Pos, Dist) for any value; only the
	// Visited* counters and the I/O interleaving vary, so experiments that
	// compare I/O traces pin QueryWorkers to 1.
	QueryWorkers int
	// RawSums is the raw log, owned by the partition layer: it appends every
	// insert and commits it, and the index verifies every raw read against it,
	// as every page and leaf read is against the block CRCs of its file, so
	// bit rot surfaces as storage.ErrCorruptData instead of a wrong answer.
	RawSums *storage.RecordSums
}

// DefaultMemBudget is the sort budget of a tree build whose
// Options.MemBudgetBytes is unset.
const DefaultMemBudget = 64 << 20

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
	case o.RawSums == nil:
		return errors.New("core: nil raw log")
	}
	return nil
}

// recordSize returns the size of a leaf record: the key, the position
// little-endian and, when materialized, the encoded raw series.
func (o *Options) recordSize() int {
	if o.Materialized {
		return summary.RecordSize + series.EncodedSize(o.S.Params().SeriesLen)
	}
	return summary.RecordSize
}

// Neighbor is one exact search answer: a record position and its distance
// to the query — SQUARED below the partition layer, which takes the square
// roots once, when the final top-k is materialized. It is shard.Neighbor,
// so every merge step — per-shard heaps, the shard reduce, and the
// cross-partition gather — ranks under the one (distance, position) total
// order shard.KNNHeap implements.
type Neighbor = shard.Neighbor

// Result is a search answer.
type Result struct {
	// Pos is the ordinal of the answer in the raw file (-1 when empty).
	Pos int64
	// Dist is the Euclidean distance to the query.
	Dist float64
	// VisitedRecords counts series whose true distance was computed
	// (Figure 9f).
	VisitedRecords int64
	// VisitedLeaves counts the leaves — checksum blocks of the leaf run —
	// an approximate window spans (an LSM has none). Exact search reads
	// candidate records, not leaves: its verification adds nothing, so it
	// reports its seeding window's leaves.
	VisitedLeaves int64
}

// Shape describes how an index lays its records out on the device: leaves
// (the leaf run's checksum blocks, see leafBlocks) and their mean occupancy
// in [0,1] for the tree, sorted runs for the LSM. The fields a variant has
// no notion of stay zero.
type Shape struct {
	Leaves   int
	LeafFill float64
	Runs     int
}

// summaryRecordReader streams the (invSAX, position) records of a raw
// dataset file — phase one of Algorithms 2 and 3 (lines 2-8). It summarizes
// the file in batches of workers × blockRecords records: one shard.Scan a
// batch, each shard reading its contiguous range with one Views.Read (a view
// of the mapped file on OSFS, one ReadAt otherwise) and keying the records
// where they lie (summary.KeyOfEncoded: no decode, no per-series allocation)
// into its own slice of the batch's records. Shards write disjoint slices
// and the batch is drained in order, so the stream is the same for any
// worker count.
//
// It is the only pass a bulk load makes over the raw file in file order:
// sums (from storage.NewRecordSums on the same file) has its per-record CRCs
// filled from the bytes each key is computed from, complete once the stream
// has been read to its end. A torn trailing partial record is not part of
// the dataset and is left unread.
type summaryRecordReader struct {
	s         *summary.Summarizer
	raw       storage.File
	workers   int
	sums      *storage.RecordSums
	inSize    int
	next, end int64            // the next record to summarize, and the record count
	in        []byte           // one batch of raw input (unused under views)
	out       []summary.Record // one batch of records
	avail     []summary.Record // the current batch's records not yet read
	err       error
}

// blockRecords is the number of records each shard of a batch summarizes:
// 256 KiB of raw input.
func blockRecords(inSize int) int { return max((256<<10)/inSize, 1) }

func newSummaryRecordReader(s *summary.Summarizer, raw storage.File, workers int, sums *storage.RecordSums) (*summaryRecordReader, error) {
	inSize := series.EncodedSize(s.Params().SeriesLen)
	size, err := raw.Size()
	if err != nil {
		return nil, err
	}
	records := size / int64(inSize)
	if sums.Records() != records {
		return nil, fmt.Errorf("core: raw sidecar sized for %d records, %q holds %d", sums.Records(), raw.Name(), records)
	}
	workers = shard.Resolve(workers, math.MaxInt)
	batch := int(min(int64(workers*blockRecords(inSize)), records))
	return &summaryRecordReader{
		s: s, raw: raw, workers: workers, sums: sums, inSize: inSize, end: records,
		in: make([]byte, batch*inSize), out: make([]summary.Record, batch),
	}, nil
}

func (r *summaryRecordReader) Read(p []summary.Record) (int, error) {
	for len(r.avail) == 0 && r.err == nil {
		if r.next == r.end {
			r.err = io.EOF
		} else {
			r.err = r.fill()
		}
	}
	if len(r.avail) == 0 {
		return 0, r.err
	}
	n := copy(p, r.avail)
	r.avail = r.avail[n:]
	return n, nil
}

// Len is the number of records not read yet.
func (r *summaryRecordReader) Len() int { return int(r.end-r.next) + len(r.avail) }

// fill summarizes the next batch into out.
func (r *summaryRecordReader) fill() error {
	base := r.next
	n := int(min(int64(len(r.out)), r.end-base))
	err := shard.Scan(context.Background(), r.workers, n, func(_ int, sh shard.Range, _ func() bool) (err error) {
		views := storage.PinViews(r.raw)
		defer views.Release(&err)
		in, err := views.Read((base+int64(sh.Lo))*int64(r.inSize), r.in[sh.Lo*r.inSize:sh.Hi*r.inSize])
		if err != nil {
			return err
		}
		r.sums.Fill(base+int64(sh.Lo), in)
		for i := range sh.Hi - sh.Lo {
			pos := sh.Lo + i
			r.out[pos] = summary.Record{Key: r.s.KeyOfEncoded(in[i*r.inSize : (i+1)*r.inSize]), Pos: base + int64(pos)}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.next += int64(n)
	r.avail = r.out[:n]
	return nil
}

// SummarySource opens the summarization pass over raw (open on rawName): the
// unsorted record stream a bulk load sorts, and the fresh sidecar it fills
// on the way, complete once the stream has been read to its end — an
// existing sidecar file may describe a replaced dataset, so it is never
// reused. Whoever drains the stream persists the sidecar (RecordSums.Flush)
// before any manifest may reference the build.
func SummarySource(fs storage.FS, s *summary.Summarizer, raw storage.File, rawName string, workers int,
) (summary.RecordReader, *storage.RecordSums, error) {
	sums, err := storage.NewRecordSums(fs, rawName, series.EncodedSize(s.Params().SeriesLen), raw)
	if err != nil {
		return nil, nil, err
	}
	src, err := newSummaryRecordReader(s, raw, workers, sums)
	if err != nil {
		return nil, nil, err
	}
	return src, sums, nil
}

// ErrEmptyIndex is returned when searching an index with no records.
var ErrEmptyIndex = errors.New("core: index is empty")

// simsArray is the in-memory sorted summary array of a tree (the
// paper: summaries are orders of magnitude smaller than the data and stay in
// memory): row i of col is the SAX word of the i-th record in key order, and
// positions[i] its position in the raw file. Both hold exactly their length,
// Segments + 8 bytes a series, for as long as the handle lives.
type simsArray struct {
	col       summary.Column
	positions []int64
}

// newSimsArray returns an empty array with room for exactly n records.
func newSimsArray(s *summary.Summarizer, n int) simsArray {
	return simsArray{col: s.NewColumn(n), positions: make([]int64, 0, n)}
}

// add appends a sorted record. Its key is de-interleaved into a row here,
// once, instead of by every query's lower-bound pass.
func (a *simsArray) add(rec summary.Record) {
	a.col.AppendKey(rec.Key)
	a.positions = append(a.positions, rec.Pos)
}

// clip trims the arrays' capacity to their length: a build knows its
// record count only once its record stream ends, and reserves an estimate.
func (a *simsArray) clip() {
	if cap(a.col.Syms) > len(a.col.Syms) {
		a.col.Syms = append(make([]uint8, 0, len(a.col.Syms)), a.col.Syms...)
	}
	if cap(a.positions) > len(a.positions) {
		a.positions = append(make([]int64, 0, len(a.positions)), a.positions...)
	}
}

// ApproxWindow is one index's contribution to a (possibly cross-partition)
// approximate search: its window candidates below and at-or-above the
// query key under the global record order, the store to load any of them
// from, and the I/O accounting for collecting them. See internal/window
// for the semantics that make these contributions composable.
type ApproxWindow struct {
	// Source holds the candidates in record order, the first Split of them
	// with key < query key (the source's trailing half-window) and the rest
	// with key >= query key (its leading half-window).
	window.Source
	// Store is where the candidates are read from: EvalWindow pins its file
	// for the evaluation and reads each visited record once, verified (what
	// Result.VisitedRecords counts).
	Store Store
	// Leaves counts the leaves the window spans (an LSM has none).
	Leaves int64
}

// windowCands collects the window contribution of a tree's sorted summary
// array: the trailing and leading half-windows
// around q's insertion position, one slice of the array in record order,
// with the ordinal range [lo, hi) they span.
// A candidate's key is re-interleaved from its row, for the window's merge
// across partitions.
func windowCands(opt *Options, sims *simsArray, q series.Series, radius int) (aw ApproxWindow, lo, hi int, err error) {
	qPAA, err := opt.S.PAA(q, nil)
	if err != nil {
		return aw, 0, 0, err
	}
	half := window.Half(radius, sims.col.Len())
	ins := sims.col.Search(opt.S.SAXFromPAA(qPAA, nil))
	lo, hi = max(ins-half, 0), min(ins+half, sims.col.Len())
	aw.Cands, aw.Split = make([]window.Cand, hi-lo), ins-lo
	for i := lo; i < hi; i++ {
		aw.Cands[i-lo] = window.Cand{Key: sims.col.Key(i), Pos: sims.positions[i], LB: opt.S.MinDistSqPAAToSAX(qPAA, sims.col.Row(i)), Ord: i}
	}
	return aw, lo, hi, nil
}

// EvalWindow evaluates a merged approximate window for its k best
// (window.Eval) under ctx, with a pooled read buffer: each candidate is
// read, one record, from the store of the source its Src names, whose file
// stays pinned until the evaluation is over.
func EvalWindow(ctx context.Context, q series.Series, k int, cands []window.Cand, srcs ...ApproxWindow) (top []Neighbor, visited int64, err error) {
	recSize := 0
	views := make([]storage.Views, len(srcs))
	for i, src := range srcs {
		if src.Store.File != nil {
			recSize = max(recSize, src.Store.RecSize)
			views[i] = storage.PinViews(src.Store.File)
			defer views[i].Release(&err)
		}
	}
	sc := getScratch(recSize)
	defer putScratch(sc)
	// The fetches are serial, so a check before each is this phase's
	// cancellation granularity (the sharded verification scans detach
	// instead; see shard.Scan).
	return window.Eval(q, cands, k, func(c window.Cand) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := &srcs[c.Src].Store
		return st.Fetch(views[c.Src], st.id(c), sc.Buf)
	})
}

// Store is where an index's candidates are read from: the raw dataset file
// (RawStore: IDs are positions, a record is the encoded series alone,
// checked against the CRC sidecar Sums), or a materialized ("-Full") tree's
// current leaf-run generation (IDs are ordinals of the summary
// array, a record is a leaf record with its series at Off =
// summary.RecordSize, checked by the run's checksum blocks as it is read,
// and Positions maps an ordinal to the raw position a search reports). The
// verification scan, the approximate window and a tree insert's gather all
// read through one, so rot surfaces as storage.ErrCorruptData, never as a
// wrong distance.
type Store struct {
	File      storage.File
	Sums      *storage.RecordSums // nil for a leaf run
	Positions []int64             // nil for the raw file
	// RecSize is the bytes a record takes, Off where its series starts.
	RecSize, Off int
}

// RawStore is the store of the raw dataset file f, verified against sums.
func RawStore(f storage.File, sums *storage.RecordSums, seriesLen int) Store {
	return Store{File: f, Sums: sums, RecSize: series.EncodedSize(seriesLen)}
}

// id is the record a window candidate names in the store.
func (s *Store) id(c window.Cand) int64 {
	if s.Positions != nil {
		return int64(c.Ord)
	}
	return c.Pos
}

// pos is the raw position of record id.
func (s *Store) pos(id int64) int64 {
	if s.Positions != nil {
		return s.Positions[id]
	}
	return id
}

// read returns the n adjacent records starting at id, from one read: a
// view of the file, or buf's first n records, filled. It is the one
// primitive every candidate fetch goes through.
func (s *Store) read(v storage.Views, id int64, n int, buf []byte) ([]byte, error) {
	run, err := v.Read(id*int64(s.RecSize), buf[:n*s.RecSize])
	if err != nil {
		return nil, fmt.Errorf("core: %s: %d records at %d: %w", s.File.Name(), n, id, err)
	}
	return run, nil
}

// series returns the encoded series of record k of a run read.
func (s *Store) series(run []byte, k int) []byte {
	return run[k*s.RecSize+s.Off : (k+1)*s.RecSize]
}

// verify checks the series of record id against the raw file's sidecar; a
// leaf run's checksum blocks were checked when it was read.
func (s *Store) verify(id int64, enc []byte) error {
	if s.Sums == nil {
		return nil
	}
	if err := s.Sums.Verify(id, enc); err != nil {
		return fmt.Errorf("core: raw series %d: %w", id, err)
	}
	return nil
}

// Fetch returns the verified series of record id, read through v (a pin of
// the store's file): a view of the file, or read into buf, which holds at
// least one record.
func (s *Store) Fetch(v storage.Views, id int64, buf []byte) ([]byte, error) {
	rec, err := s.read(v, id, 1, buf)
	if err != nil {
		return nil, err
	}
	enc := s.series(rec, 0)
	return enc, s.verify(id, enc)
}

// rawRunCap is the most file-adjacent candidates the verification scan
// fetches with one read: past a handful the read is no longer a candidate's
// cost, and a bound improvement inside a run wastes at most this many records.
const rawRunCap = 16

// rawScratch is the buffer one goroutine reads records through.
type rawScratch struct{ Buf []byte }

// The pool is process-wide, not per index handle, so that an idle index
// holds no scratch at all: a garbage collection empties it.
var rawScratchPool = sync.Pool{New: func() any { return new(rawScratch) }}

// getScratch takes a scratch of n bytes from the pool: rawRunCap records
// for scanRaw, one for the window's fetches. A verification shard takes one
// for its whole range and puts it back itself, so one abandoned by a
// cancelled query keeps it until it is done.
func getScratch(n int) *rawScratch {
	sc := rawScratchPool.Get().(*rawScratch)
	if cap(sc.Buf) < n {
		sc.Buf = make([]byte, n)
	}
	sc.Buf = sc.Buf[:n]
	return sc
}

// putScratch returns sc to the pool.
func putScratch(sc *rawScratch) { rawScratchPool.Put(sc) }

// VerifyRaw is the SIMS verification scan of every index, over the store
// its candidates lie in: cands, survivors of the lower-bound pass whose IDs
// are the store's (raw positions, or a leaf run's ordinals), are put in ID
// order (in place) so the file is read strictly forward, and the order is
// cut into contiguous shards across workers. A
// shard runs its candidates through scanRaw into a heap of its own seeded
// with top's neighbors, keeping those whose lower bound is at or under the
// heap's k-th best and, strictly, under the shared bound, which lets shards
// prune each other's candidates; the shard heaps reduce into top
// (shard.ScanKNN). A tie with either bound is still verified: the abandon
// limit is the k-th best itself and the kernel abandons only on a strict
// excess, so a distance that ties it completes and the (distance, position)
// order decides. It returns the number of series measured.
func VerifyRaw(ctx context.Context, st Store, q series.Series, cands []summary.Cand,
	top *shard.KNNHeap, bound *shard.BSF, workers int,
) (visited int64, err error) {
	slices.SortFunc(cands, func(a, b summary.Cand) int { return cmp.Compare(a.ID, b.ID) })
	return shard.ScanKNN(ctx, workers, len(cands), top, func(r shard.Range, local *shard.Local, cancelled func() bool) (err error) {
		local.VisitedRecords, err = scanRaw(&st, q, cands[r.Lo:r.Hi], cancelled,
			func(lb float64) (float64, bool) { return local.Top.Bound(), admits(local.Top, bound, lb) },
			func(pos int64, sq float64) {
				if local.Top.Offer(Neighbor{Pos: pos, Dist: sq}) {
					bound.Lower(local.Top.Bound())
				}
			})
		return err
	})
}

// admits says whether a candidate with lower bound lb can still reach the
// top-k of a scan whose heap is top: lb is at or under top's k-th best, and
// not strictly over the shared bound.
func admits(top *shard.KNNHeap, bound *shard.BSF, lb float64) bool {
	return lb <= top.Bound() && !bound.Prunes(lb)
}

// scanRaw is the one candidate scanner: a shard of ID-sorted candidates
// fetched from st, checked and measured against q. admit says whether a
// candidate with lower bound lb is still under the scan's bounds and, if
// so, the limit its distance may abandon at; found takes, at its raw
// position, every distance that completed under its limit and may tighten
// what admit answers next. Candidates adjacent in the store and admitted
// when the run is formed, up to rawRunCap, are fetched with one read; each
// is then admitted again in order, so one pruned by an improvement inside
// its own run is skipped as if never fetched, and every other record is
// verified (st.verify: the raw file's sidecar; a leaf run's blocks were
// checked by the read) before its distance is taken — straight from the
// encoded bytes, which are the file's own mapped pages when it offers views
// (pinned here, once per scan: a shard detached by a cancelled query may
// outlive the index's Close). It returns the number of distances taken.
func scanRaw(st *Store, q series.Series, cands []summary.Cand, cancelled func() bool,
	admit func(lb float64) (limit float64, ok bool), found func(pos int64, sq float64),
) (visited int64, err error) {
	admitted := func(c summary.Cand) bool { _, ok := admit(c.LB); return ok }
	sc := getScratch(rawRunCap * st.RecSize)
	defer putScratch(sc)
	raw := storage.PinViews(st.File)
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
		run, err := st.read(raw, first, n, sc.Buf)
		if err != nil {
			return visited, err
		}
		for k, c := range cands[i : i+n] {
			limit, ok := admit(c.LB)
			if !ok {
				continue
			}
			enc := st.series(run, k)
			if err := st.verify(c.ID, enc); err != nil {
				return visited, err
			}
			visited++
			if sq, ok := series.SquaredEDEarlyAbandonEncoded(q, enc, limit); ok {
				found(st.pos(c.ID), sq)
			}
		}
		i += n
	}
	return visited, nil
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
