// Package extsort is the bulk load's sort: external sorting of fixed-size
// records under an explicit memory budget (§3.1 of the paper, "Bottom-up
// Bulk-Loading Using External Sorting"). The partitioning phase scans the
// input in memory-sized chunks, sorts each chunk, and flushes it as a sorted
// run; the merging phase merge-sorts the runs with a tournament over
// buffered sequential readers. An input that fits one chunk skips both: it
// is sorted in memory and merged from there.
//
// The sort's product is a stream (Sorted): the final merge — of the runs
// left after the intermediate generations, or of the sorted slices of the
// one chunk — runs as its consumer reads, so the sorted records are written
// once, by whoever consumes them, in the layout of their own file: the leaf
// run of a tree or a trie, the block-compressed run of an LSM. Sort is that
// stream copied to a file.
//
// Both phases are parallel, and both fan out on internal/shard: Workers
// goroutines, each owning one chunk buffer, take turns reading the next
// chunk and then sort and flush it as a run while the next one reads, and
// the independent merges of each intermediate generation of a multi-pass
// sort run concurrently. The one chunk of an input that fits is sorted on
// every worker too, as Workers contiguous slices sorted concurrently in
// place. The memory budget M is partitioned across the workers (chunk
// buffers during run formation, per-merge buffer groups during merging), so
// the paper's memory model stays honest at any worker count. The sorted
// stream is byte-identical for any worker count: comparator ties are broken
// on the full record encoding, which makes the result a pure function of
// the input multiset, independent of chunk boundaries and merge grouping.
//
// Every byte moved goes through the storage VFS, so the paper's O(N/B)
// sequential-I/O claim is directly observable in the I/O statistics. The
// package sorts a record stream and nothing else: every other sorted write
// — an LSM flush or compaction, a tree insert batch — is an in-process
// merge of its owner's.
package extsort

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
)

// Compare orders two records. It must be a strict weak ordering over the
// full record encoding.
type Compare func(a, b []byte) int

// CompareKeyPrefix returns a Compare that orders records by their first n
// bytes (the layout used for invSAX records, whose keys sort bytewise).
func CompareKeyPrefix(n int) Compare {
	return func(a, b []byte) int { return bytes.Compare(a[:n], b[:n]) }
}

// Config parameterizes a sort.
type Config struct {
	// FS hosts the temporary runs (and Sort's output file).
	FS storage.FS
	// RecordSize is the fixed encoded size of each record, in bytes.
	RecordSize int
	// Compare orders records.
	Compare Compare
	// MemBudget is the maximum number of record bytes held in memory at
	// once; it controls run length and merge fan-in. This is the paper's M.
	MemBudget int64
	// TempPrefix names temporary run files (default "extsort").
	TempPrefix string
	// BufSize is the per-stream I/O buffer size (default 256 KiB).
	BufSize int
	// Workers is the number of goroutines used for run formation, for the
	// sort of a lone chunk and for the concurrent merges of each
	// intermediate generation (<= 0 means runtime.GOMAXPROCS(0)). MemBudget
	// is partitioned across workers; the sorted stream is byte-identical
	// for any value.
	Workers int
}

func (c *Config) validate() error {
	switch {
	case c.FS == nil:
		return errors.New("extsort: nil FS")
	case c.RecordSize <= 0:
		return errors.New("extsort: record size must be positive")
	case c.Compare == nil:
		return errors.New("extsort: nil comparator")
	}
	if c.MemBudget < int64(c.RecordSize)*4 {
		c.MemBudget = int64(c.RecordSize) * 4
	}
	if c.TempPrefix == "" {
		c.TempPrefix = "extsort"
	}
	if c.BufSize <= 0 {
		c.BufSize = 256 << 10
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// totalOrder refines cmp with a full-record tie-break. Sorting under a total
// order makes the output a pure function of the input multiset — the same
// bytes regardless of how records were chunked into runs or how runs were
// grouped into merges, and therefore regardless of Workers.
func totalOrder(cmp Compare) Compare {
	return func(a, b []byte) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return bytes.Compare(a, b)
	}
}

// Sort consumes all records from in, sorts them, and writes the sorted
// stream to outName on cfg.FS: the stream Sorted returns, copied to a file.
// It returns the number of records sorted. A failed Sort removes what it
// wrote of outName, and leaves a file there untouched if it failed before
// creating it.
func Sort(cfg Config, in io.Reader, outName string) (int64, error) {
	r, n, err := Sorted(cfg, in)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if err := write(cfg.FS, outName, cfg.BufSize, r); err != nil {
		return 0, err
	}
	return n, r.Close()
}

// Sorted consumes all records from in and returns them sorted, as a stream
// read from the final k-way merge as it is pulled, and their number.
// Records comparing equal under cfg.Compare are ordered by their full
// encoding, so the stream is the same for any cfg.Workers. An input that
// fits one chunk is sorted in memory, on every worker, and merged from
// memory; a longer one goes through run files, merged in as many
// generations as the budget's fan-in needs, the last of which is the
// stream. Once Sorted returns, in has been read to its end. The caller
// must Close the Reader, which removes the runs it reads.
func Sorted(cfg Config, in io.Reader) (*Reader, int64, error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	cfg.Compare = totalOrder(cfg.Compare)
	chunkLen, writerBuf := cfg.chunking()
	first, last, err := readFirst(cfg, in, chunkLen)
	if err != nil {
		return nil, 0, err
	}
	total := int64(len(first) / cfg.RecordSize)
	if last {
		r, err := sortChunk(cfg, first, cfg.Workers)
		return r, total, err
	}
	runs, more, err := makeRuns(cfg, first, in, writerBuf)
	if err == nil {
		runs, err = mergeGenerations(cfg, runs)
	}
	if err != nil {
		cleanup(cfg.FS, runs)
		return nil, 0, err
	}
	r, err := openRuns(cfg, runs)
	if err != nil {
		cleanup(cfg.FS, runs)
		return nil, 0, err
	}
	r.runs = runs
	return r, total + more, nil
}

// SortInMemory sorts records (a concatenation of fixed-size records) in
// place. It is the building block of the run-formation phase and is exposed
// for callers whose data always fits in memory (e.g. sorting summaries for
// a non-materialized index when M is ample).
func SortInMemory(records []byte, recordSize int, cmp Compare) {
	n := len(records) / recordSize
	sort.Sort(&recordSlice{data: records, size: recordSize, n: n, cmp: cmp,
		swapBuf: make([]byte, recordSize)})
}

type recordSlice struct {
	data    []byte
	size, n int
	cmp     Compare
	swapBuf []byte
}

func (r *recordSlice) Len() int { return r.n }
func (r *recordSlice) Less(i, j int) bool {
	return r.cmp(r.data[i*r.size:(i+1)*r.size], r.data[j*r.size:(j+1)*r.size]) < 0
}
func (r *recordSlice) Swap(i, j int) {
	a := r.data[i*r.size : (i+1)*r.size]
	b := r.data[j*r.size : (j+1)*r.size]
	copy(r.swapBuf, a)
	copy(a, b)
	copy(b, r.swapBuf)
}

// chunking returns the chunk length run formation cuts the input into and
// the writer buffer each run is flushed through. With one worker that is one
// full-M chunk buffer, sorted and flushed inline, plus the one BufSize writer
// buffer the original algorithm always carried: the paper's N/M run count
// (and the I/O traces the experiments reproduce) exactly. With more, writer
// buffers take at most half the budget, shrinking below BufSize when Workers
// is large relative to it, one per worker; the rest is split Workers+1 ways
// although only Workers chunk buffers are resident, one per worker. The
// Workers+1 split is kept so that chunk lengths, and with them run
// boundaries and run files, stay what they were when a separate reader held
// a chunk of its own.
func (c *Config) chunking() (chunkLen, writerBuf int) {
	if c.Workers == 1 {
		return int(c.MemBudget/int64(c.RecordSize)) * c.RecordSize, c.BufSize
	}
	writerBuf = c.BufSize
	if max := int(c.MemBudget / int64(2*c.Workers)); writerBuf > max {
		writerBuf = max
	}
	if writerBuf < c.RecordSize {
		writerBuf = c.RecordSize
	}
	chunkBytes := (c.MemBudget - int64(c.Workers*writerBuf)) / int64(c.Workers+1)
	if min := int64(c.RecordSize) * 4; chunkBytes < min {
		chunkBytes = min
	}
	return int(chunkBytes/int64(c.RecordSize)) * c.RecordSize, writerBuf
}

// firstChunkMin is the size the first chunk's buffer starts at: it grows with
// the input, doubling up to the chunk length, so an input far below the
// memory budget is not read into a buffer allocated, and zeroed, at the
// budget's size.
const firstChunkMin = 1 << 20

// readFirst reads the first chunk, like readChunk into a buffer of chunkLen
// bytes, but into one that grows with the input.
func readFirst(cfg Config, in io.Reader, chunkLen int) (recs []byte, last bool, err error) {
	buf := make([]byte, min(chunkLen, max(firstChunkMin/cfg.RecordSize, 1)*cfg.RecordSize))
	for n := 0; ; {
		recs, last, err = readChunk(cfg, in, buf[n:])
		if err != nil || last || len(buf) == chunkLen {
			// Capped at len(buf): the buffer is recycled as a full chunk,
			// and append's growth may have left it larger than chunkLen.
			return buf[: n+len(recs) : len(buf)], last, err
		}
		n = len(buf)
		buf = append(buf, make([]byte, min(n, chunkLen-n))...)
	}
}

// readChunk fills buf from in and returns the records read; last reports
// that the input ended within them.
func readChunk(cfg Config, in io.Reader, buf []byte) (recs []byte, last bool, err error) {
	n, err := io.ReadFull(in, buf)
	switch {
	case err == nil:
		return buf, false, nil
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return nil, true, fmt.Errorf("extsort: reading input: %w", err)
	case n%cfg.RecordSize != 0:
		return nil, true, fmt.Errorf("extsort: reading input: %w", io.ErrUnexpectedEOF)
	}
	return buf[:n], true, nil
}

// runName names run i of the partitioning phase.
func runName(cfg Config, i int) string { return fmt.Sprintf("%s.run.%d", cfg.TempPrefix, i) }

// makeRuns performs the partitioning phase on an input whose first, full
// chunk was already read: Workers goroutines, each owning one chunk buffer
// (the first one's is first, run 0), take turns reading the next chunk from
// in under a lock, then sort and flush it as a run file while the next
// goroutine reads. A run is named by its chunk index, taken under the same
// lock, so the set of runs is deterministic for a given chunk length. It
// returns the records read past the first chunk and, on error too, every
// run name that may exist so the caller can clean up.
func makeRuns(cfg Config, first []byte, in io.Reader, writerBuf int) (runs []string, more int64, err error) {
	var (
		mu    sync.Mutex
		nRuns = 1
		done  bool
	)
	// next reads the next chunk into *buf, allocated on first use, and
	// returns it with its run index: nil once the input is exhausted or a
	// sibling failed.
	next := func(buf *[]byte, cancelled func() bool) ([]byte, int, error) {
		mu.Lock()
		defer mu.Unlock()
		if done || cancelled() {
			return nil, 0, nil
		}
		if *buf == nil {
			*buf = make([]byte, len(first))
		}
		data, last, err := readChunk(cfg, in, *buf)
		done = last || err != nil
		if len(data) == 0 {
			return nil, 0, err
		}
		more += int64(len(data) / cfg.RecordSize)
		nRuns++
		return data, nRuns - 1, nil
	}
	err = shard.FanOut(context.Background(), cfg.Workers, cfg.Workers, func(w int, cancelled func() bool) error {
		var buf, data []byte
		idx := 0
		if w == 0 {
			buf, data = first, first
		}
		for {
			if data != nil {
				r, err := sortChunk(cfg, data, 1)
				if err == nil {
					err = write(cfg.FS, runName(cfg, idx), writerBuf, r)
				}
				if err != nil {
					return err
				}
			}
			var err error
			if data, idx, err = next(&buf, cancelled); data == nil {
				return err
			}
		}
	})
	for i := 0; i < nRuns; i++ {
		runs = append(runs, runName(cfg, i))
	}
	return runs, more, err
}

// sortChunk sorts one chunk and returns it as a stream. The chunk is cut
// into parts contiguous slices, sorted concurrently in place and merged
// under cfg.Compare as the stream is read: the same total order, and so the
// same bytes, for any parts, at no memory beyond the chunk.
func sortChunk(cfg Config, data []byte, parts int) (*Reader, error) {
	size := cfg.RecordSize
	n := len(data) / size
	err := shard.Scan(context.Background(), parts, n, func(_ int, r shard.Range, _ func() bool) error {
		SortInMemory(data[r.Lo*size:r.Hi*size], size, cfg.Compare)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var streams []*mergeStream
	for _, r := range shard.Split(n, parts) {
		streams = append(streams, &mergeStream{r: bytes.NewReader(data[r.Lo*size : r.Hi*size]), rec: make([]byte, size)})
	}
	return newReader(cfg, streams, nil)
}

// openRuns returns the merge of the run files runs as a stream, each read
// through a BufSize sequential reader.
func openRuns(cfg Config, runs []string) (*Reader, error) {
	var streams []*mergeStream
	var files []storage.File
	for _, name := range runs {
		f, err := cfg.FS.Open(name)
		if err != nil {
			closeAll(files)
			return nil, err
		}
		files = append(files, f)
		streams = append(streams, &mergeStream{
			r:   storage.NewSequentialReader(f, 0, -1, cfg.BufSize),
			rec: make([]byte, cfg.RecordSize),
		})
	}
	return newReader(cfg, streams, files)
}

// write creates name and fills it with the records of r, an unread
// stream, through a bufSize sequential writer. A failed write removes the
// file — from the Create on, a pre-existing file at name is gone and the
// path is this call's.
func write(fs storage.FS, name string, bufSize int, r *Reader) (err error) {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil && fs.Exists(name) {
			_ = fs.Remove(name)
		}
	}()
	w := storage.NewSequentialWriter(f, 0, bufSize)
	for err == nil && r.err == nil && r.h.Len() > 0 {
		if _, err = w.Write(r.h.streams[0].rec); err == nil {
			r.pop()
		}
	}
	if err == nil {
		err = r.err
	}
	if err == nil {
		err = w.Flush()
	}
	// A failed Close can mean deferred write-back errors (ENOSPC/EIO);
	// swallowing it would let callers install a truncated output.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mergeGenerations merges runs, in as many intermediate generations as the
// fan-in the memory budget allows needs, down to the runs the final merge
// takes at once, deleting the runs as they are consumed. On error it
// returns the runs and temporaries that may still exist, for the caller to
// remove.
func mergeGenerations(cfg Config, runs []string) ([]string, error) {
	// The final pass is a single merge using the whole budget.
	finalFanIn := int(cfg.MemBudget/int64(cfg.BufSize)) - 1
	if finalFanIn < 2 {
		finalFanIn = 2
	}
	for gen := 0; len(runs) > finalFanIn; gen++ {
		next, err := mergeGeneration(cfg, runs, gen)
		if err != nil {
			return runs, err
		}
		runs = next
	}
	return runs, nil
}

// mergeGeneration runs one pass of the multi-pass merge: inputs are grouped
// by a fan-in sized from the per-worker budget share, and the groups —
// independent by construction — merge concurrently on up to Workers
// goroutines. On success the group outputs are returned and the inputs have
// been deleted; on error every output this generation produced is removed
// and the surviving inputs are left to the caller.
func mergeGeneration(cfg Config, inputs []string, gen int) ([]string, error) {
	// Partition the budget: each concurrent merge holds fanIn+1 buffers, so
	// running Workers merges at once shrinks the per-merge fan-in. A tiny
	// fan-in multiplies full passes over the data, which costs far more
	// than lost concurrency — so concurrency yields first, shrinking until
	// each merge keeps a fan-in of at least min(8, full-budget fan-in).
	fullFanIn := int(cfg.MemBudget/int64(cfg.BufSize)) - 1
	minFanIn := 8
	if minFanIn > fullFanIn {
		minFanIn = fullFanIn
	}
	if minFanIn < 2 {
		minFanIn = 2
	}
	workers := cfg.Workers
	fanIn := int(cfg.MemBudget/(int64(workers)*int64(cfg.BufSize))) - 1
	if fanIn < minFanIn {
		workers = int(cfg.MemBudget / (int64(minFanIn+1) * int64(cfg.BufSize)))
		if workers < 1 {
			workers = 1
		}
		fanIn = int(cfg.MemBudget/(int64(workers)*int64(cfg.BufSize))) - 1
		if fanIn < 2 {
			fanIn = 2
		}
	}
	nGroups := (len(inputs) + fanIn - 1) / fanIn
	outs := make([]string, nGroups)
	for g := range outs {
		outs[g] = fmt.Sprintf("%s.merge.%d.%d", cfg.TempPrefix, gen, g)
	}
	err := shard.FanOut(context.Background(), workers, nGroups, func(g int, _ func() bool) error {
		group := inputs[g*fanIn : min((g+1)*fanIn, len(inputs))]
		r, err := openRuns(cfg, group)
		if err != nil {
			return err
		}
		err = write(cfg.FS, outs[g], cfg.BufSize, r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		cleanup(cfg.FS, group)
		return nil
	})
	if err != nil {
		cleanup(cfg.FS, outs)
		return nil, err
	}
	return outs, nil
}

// mergeStream is one sorted source of a merge — a run file or a sorted part
// of an in-memory chunk — and rec its next record.
type mergeStream struct {
	r   io.Reader
	rec []byte
	ok  bool
}

func (s *mergeStream) advance() error {
	_, err := io.ReadFull(s.r, s.rec)
	if err == io.EOF {
		s.ok = false
		return nil
	}
	if err != nil {
		return err
	}
	s.ok = true
	return nil
}

type mergeHeap struct {
	streams []*mergeStream
	cmp     Compare
}

func (h *mergeHeap) Len() int { return len(h.streams) }
func (h *mergeHeap) Less(i, j int) bool {
	return h.cmp(h.streams[i].rec, h.streams[j].rec) < 0
}
func (h *mergeHeap) Swap(i, j int) { h.streams[i], h.streams[j] = h.streams[j], h.streams[i] }
func (h *mergeHeap) Push(x any)    { h.streams = append(h.streams, x.(*mergeStream)) }
func (h *mergeHeap) Pop() any {
	old := h.streams
	n := len(old)
	s := old[n-1]
	h.streams = old[:n-1]
	return s
}

// Reader is a sorted record stream: the k-way merge, under the sort's
// order, of sorted streams — run files or the sorted slices of an
// in-memory chunk — computed as it is read.
type Reader struct {
	fs    storage.FS
	h     mergeHeap
	files []storage.File
	// runs are the run files the merge reads, removed by Close.
	runs []string
	// part is the rest of a record a short Read cut, in partBuf.
	part, partBuf []byte
	err           error
}

// newReader merges streams, which read files, each sorted under cfg.Compare.
func newReader(cfg Config, streams []*mergeStream, files []storage.File) (*Reader, error) {
	r := &Reader{fs: cfg.FS, h: mergeHeap{cmp: cfg.Compare}, files: files, partBuf: make([]byte, cfg.RecordSize)}
	for _, s := range streams {
		if err := s.advance(); err != nil {
			r.Close()
			return nil, err
		}
		if s.ok {
			r.h.streams = append(r.h.streams, s)
		}
	}
	heap.Init(&r.h)
	return r, nil
}

// pop advances past the head record.
func (r *Reader) pop() {
	s := r.h.streams[0]
	if r.err = s.advance(); r.err != nil {
		return
	}
	if s.ok {
		heap.Fix(&r.h, 0)
	} else {
		heap.Pop(&r.h)
	}
}

// Read reads the next records of the stream; a p that ends inside a record
// gets its first bytes, and the next Read the rest.
func (r *Reader) Read(p []byte) (int, error) { return r.readWhile(p, nil) }

// readWhile reads like Read, but ends the stream — io.EOF — at the first
// record keep rejects, which stays next. A nil keep takes every record.
func (r *Reader) readWhile(p []byte, keep func(rec []byte) bool) (int, error) {
	n := copy(p, r.part)
	r.part = r.part[n:]
	for n < len(p) && r.err == nil && r.h.Len() > 0 {
		rec := r.h.streams[0].rec
		if keep != nil && !keep(rec) {
			break
		}
		c := copy(p[n:], rec)
		if c < len(rec) {
			r.part = append(r.partBuf[:0], rec[c:]...)
		}
		n += c
		r.pop()
	}
	switch {
	case n > 0:
		return n, nil
	case r.err != nil:
		return 0, r.err
	}
	return 0, io.EOF
}

// While returns the stream's records up to the first one keep rejects, as
// a reader of its own: it ends there, and the record keep rejected is the
// next one r, or another While of r, reads.
func (r *Reader) While(keep func(rec []byte) bool) io.Reader { return while{r, keep} }

type while struct {
	r    *Reader
	keep func(rec []byte) bool
}

func (w while) Read(p []byte) (int, error) { return w.r.readWhile(p, w.keep) }

// Close releases the stream: it closes the run files and removes them, and
// lets go of the chunk an in-memory merge reads. It is idempotent.
func (r *Reader) Close() error {
	err := closeAll(r.files)
	cleanup(r.fs, r.runs)
	r.files, r.runs, r.h.streams = nil, nil, nil
	return err
}

func closeAll(files []storage.File) error {
	var first error
	for _, f := range files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func cleanup(fs storage.FS, names []string) {
	for _, n := range names {
		if fs.Exists(n) {
			_ = fs.Remove(n)
		}
	}
}
