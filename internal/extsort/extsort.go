// Package extsort is the bulk load's sort: external sorting of
// summary.Record values — an invSAX key and a raw-file position, 24 bytes —
// under an explicit memory budget (§3.1 of the paper, "Bottom-up
// Bulk-Loading Using External Sorting"). The partitioning phase reads the
// input in memory-sized chunks, sorts each chunk, and flushes it as a sorted
// run; the merging phase merge-sorts the runs with a tournament over
// buffered sequential readers. An input that fits one chunk skips both: it
// is sorted in memory and merged from there.
//
// Records are sorted as values by slices.SortFunc under the record order
// (summary.CompareRecords), total because positions are unique; a
// materialized index gathers its raw series only as it writes its leaves. A
// temporary run stores a record in 24 bytes, the key and then the position
// little-endian, so a run's byte order is the record order.
//
// The sort's product is a stream (Sorted): the final merge — of the runs
// left after the intermediate generations, or of the sorted slices of the
// one chunk — runs as its consumer reads, so the sorted records are written
// once, by whoever consumes them, in the layout of their own file: the leaf
// run of a tree or a trie, the block-compressed run of an LSM.
//
// Both phases are parallel, and both fan out on internal/shard: Workers
// goroutines, each owning one chunk buffer, take turns reading the next
// chunk and then sort and flush it as a run while the next one reads, and
// the independent merges of each intermediate generation of a multi-pass
// sort run concurrently. The one chunk of an input that fits is sorted on
// every worker too, as Workers contiguous slices sorted concurrently in
// place. The memory budget M is partitioned across the workers (chunk
// buffers during run formation, per-merge buffer groups during merging), so
// the paper's memory model stays honest at any worker count. The order is
// total, so the sorted stream is the same for any worker count: a pure
// function of the input multiset, independent of chunk boundaries and merge
// grouping.
//
// Every byte moved goes through the storage VFS, so the paper's O(N/B)
// sequential-I/O claim is directly observable in the I/O statistics. The
// package sorts a record stream and nothing else: every other sorted write
// — an LSM flush or compaction, a tree insert batch — is an in-process
// merge of its owner's.
package extsort

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// recordSize is the size of a record in a temporary run, and what one takes
// of the memory budget.
const recordSize = summary.RecordSize

// Compare orders two encoded records; Sort ignores it.
type Compare func(a, b []byte) int

// CompareKeyPrefix returns a Compare that orders records by their first n
// bytes. Sort ignores it: its key prefix under a full-record tie-break is
// the record order Sort sorts under.
func CompareKeyPrefix(n int) Compare {
	return func(a, b []byte) int { return bytes.Compare(a[:n], b[:n]) }
}

// Config parameterizes a sort.
type Config struct {
	// FS hosts the temporary runs (and Sort's output file).
	FS storage.FS
	// RecordSize and Compare describe Sort's byte records: RecordSize must
	// be summary.RecordSize, and Compare is ignored. Sorted reads neither.
	RecordSize int
	Compare    Compare
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
	// is partitioned across workers; the sorted stream is the same for any
	// value.
	Workers int
}

func (c *Config) validate() error {
	if c.FS == nil {
		return errors.New("extsort: nil FS")
	}
	if c.MemBudget < recordSize*4 {
		c.MemBudget = recordSize * 4
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

// Sort sorts a byte stream of encoded records — each the key, then the
// position little-endian — into outName on cfg.FS: Sorted over the decoded
// records, encoded again. It returns the number of records sorted. It
// refuses a cfg.RecordSize other than summary.RecordSize. A failed Sort
// removes what it wrote of outName, and leaves a file there untouched if it
// failed before creating it. Delete it once its last caller sorts records.
func Sort(cfg Config, in io.Reader, outName string) (int64, error) {
	if cfg.RecordSize != recordSize {
		return 0, fmt.Errorf("extsort: Sort takes %d-byte records, not %d", recordSize, cfg.RecordSize)
	}
	data, err := io.ReadAll(in)
	if err == nil && len(data)%recordSize != 0 {
		err = fmt.Errorf("extsort: input ends %d bytes into a record: %w", len(data)%recordSize, io.ErrUnexpectedEOF)
	}
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		return 0, err
	}
	recs := make(summary.SliceReader, len(data)/recordSize)
	for i := range recs {
		recs[i] = summary.DecodeRecord(data[i*recordSize:])
	}
	r, n, err := Sorted(cfg, &recs)
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
// read from the final k-way merge as it is pulled, and their number. An
// input that fits one chunk is sorted in memory, on every worker, and merged
// from memory; a longer one goes through run files, merged in as many
// generations as the budget's fan-in needs, the last of which is the
// stream. Once Sorted returns, in has been read to its end. The caller
// must Close the Reader, which removes the runs it reads.
func Sorted(cfg Config, in summary.RecordReader) (*Reader, int64, error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	chunkLen, writerBuf := cfg.chunking()
	first, last, err := readFirst(in, chunkLen)
	if err != nil {
		return nil, 0, err
	}
	total := int64(len(first))
	if last {
		return sortChunk(cfg, first, cfg.Workers), total, nil
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
	r.runs, r.left = runs, total+more
	return r, total + more, nil
}

// chunking returns the chunk length, in records, run formation cuts the
// input into and the writer buffer, in bytes, each run is flushed through.
// With one worker that is one full-M chunk buffer, sorted and flushed
// inline, plus the one BufSize writer buffer the original algorithm always
// carried: the paper's N/M run count (and the I/O traces the experiments
// reproduce) exactly. With more, writer buffers take at most half the
// budget, shrinking below BufSize when Workers is large relative to it, one
// per worker; the rest is split Workers+1 ways although only Workers chunk
// buffers are resident, one per worker. The Workers+1 split is kept so that
// chunk lengths, and with them run boundaries and run files, stay what they
// were when a separate reader held a chunk of its own.
func (c *Config) chunking() (chunkLen, writerBuf int) {
	if c.Workers == 1 {
		return int(c.MemBudget / recordSize), c.BufSize
	}
	writerBuf = c.BufSize
	if max := int(c.MemBudget / int64(2*c.Workers)); writerBuf > max {
		writerBuf = max
	}
	if writerBuf < recordSize {
		writerBuf = recordSize
	}
	chunkBytes := (c.MemBudget - int64(c.Workers*writerBuf)) / int64(c.Workers+1)
	if min := int64(recordSize) * 4; chunkBytes < min {
		chunkBytes = min
	}
	return int(chunkBytes / recordSize), writerBuf
}

// firstChunkMin is the size, in bytes, the first chunk's buffer starts at:
// it grows with the input, doubling up to the chunk length, so an input far
// below the memory budget is not read into a buffer allocated, and zeroed,
// at the budget's size.
const firstChunkMin = 1 << 20

// readFirst reads the first chunk, like readChunk into a buffer of chunkLen
// records, but into one that grows with the input.
func readFirst(in summary.RecordReader, chunkLen int) (recs []summary.Record, last bool, err error) {
	buf := make([]summary.Record, min(chunkLen, max(firstChunkMin/recordSize, 1)))
	for n := 0; ; {
		recs, last, err = readChunk(in, buf[n:])
		if err != nil || last || len(buf) == chunkLen {
			// Capped at len(buf): the buffer is recycled as a full chunk,
			// and append's growth may have left it larger than chunkLen.
			return buf[: n+len(recs) : len(buf)], last, err
		}
		n = len(buf)
		buf = append(buf, make([]summary.Record, min(n, chunkLen-n))...)
	}
}

// readChunk fills buf from in and returns the records read; last reports
// that the input ended within them.
func readChunk(in summary.RecordReader, buf []summary.Record) (recs []summary.Record, last bool, err error) {
	for n := 0; n < len(buf); {
		m, err := in.Read(buf[n:])
		n += m
		switch {
		case err == io.EOF:
			return buf[:n], true, nil
		case err != nil:
			return nil, true, fmt.Errorf("extsort: reading input: %w", err)
		}
	}
	return buf, false, nil
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
func makeRuns(cfg Config, first []summary.Record, in summary.RecordReader, writerBuf int) (runs []string, more int64, err error) {
	var (
		mu    sync.Mutex
		nRuns = 1
		done  bool
	)
	// next reads the next chunk into *buf, allocated on first use, and
	// returns it with its run index: nil once the input is exhausted or a
	// sibling failed.
	next := func(buf *[]summary.Record, cancelled func() bool) ([]summary.Record, int, error) {
		mu.Lock()
		defer mu.Unlock()
		if done || cancelled() {
			return nil, 0, nil
		}
		if *buf == nil {
			*buf = make([]summary.Record, len(first))
		}
		data, last, err := readChunk(in, *buf)
		done = last || err != nil
		if len(data) == 0 {
			return nil, 0, err
		}
		more += int64(len(data))
		nRuns++
		return data, nRuns - 1, nil
	}
	err = shard.FanOut(context.Background(), cfg.Workers, cfg.Workers, func(w int, cancelled func() bool) error {
		var buf, data []summary.Record
		idx := 0
		if w == 0 {
			buf, data = first, first
		}
		for {
			if data != nil {
				if err := write(cfg.FS, runName(cfg, idx), writerBuf, sortChunk(cfg, data, 1)); err != nil {
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
// into parts contiguous slices, sorted concurrently in place and merged as
// the stream is read: the same order, and so the same stream, for any
// parts, at no memory beyond the chunk.
func sortChunk(cfg Config, data []summary.Record, parts int) *Reader {
	ranges := shard.Split(len(data), parts)
	// The sorts cannot fail, and the context is never cancelled.
	_ = shard.Scan(context.Background(), parts, len(data), func(_ int, r shard.Range, _ func() bool) error {
		slices.SortFunc(data[r.Lo:r.Hi], summary.CompareRecords)
		return nil
	})
	streams := make([]*stream, len(ranges))
	for i, r := range ranges {
		streams[i] = &stream{recs: data[r.Lo:r.Hi]}
	}
	r, _ := newReader(cfg, streams, nil) // in-memory streams cannot fail
	r.left = int64(len(data))
	return r
}

// openRuns returns the merge of the run files runs as a stream, each read
// through a BufSize sequential reader.
func openRuns(cfg Config, runs []string) (*Reader, error) {
	var streams []*stream
	var files []storage.File
	for _, name := range runs {
		f, err := cfg.FS.Open(name)
		if err != nil {
			closeAll(files)
			return nil, err
		}
		files = append(files, f)
		streams = append(streams, &stream{r: storage.NewSequentialReader(f, 0, -1, cfg.BufSize)})
	}
	return newReader(cfg, streams, files)
}

// write creates name and fills it with the encoded records of r, an unread
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
	var rec [recordSize]byte
	for err == nil && r.err == nil && len(r.h) > 0 {
		r.h[0].head.Encode(rec[:])
		if _, err = w.Write(rec[:]); err == nil {
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

// stream is one sorted source of a merge — a run file, decoded as it is
// read, or a sorted part of an in-memory chunk — and head its next record.
type stream struct {
	head summary.Record
	// recs are an in-memory part's records after head; r reads a run file
	// (nil for an in-memory part) through buf.
	recs []summary.Record
	r    io.Reader
	buf  [recordSize]byte
}

// advance moves head to the stream's next record and reports whether there
// was one.
func (s *stream) advance() (bool, error) {
	if s.r == nil {
		if len(s.recs) == 0 {
			return false, nil
		}
		s.head, s.recs = s.recs[0], s.recs[1:]
		return true, nil
	}
	if _, err := io.ReadFull(s.r, s.buf[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, err
	}
	s.head = summary.DecodeRecord(s.buf[:])
	return true, nil
}

// Reader is a sorted record stream: the k-way merge, under the record
// order, of sorted streams — run files or the sorted slices of an
// in-memory chunk — computed as it is read.
type Reader struct {
	fs storage.FS
	// h is the merge's heap of streams, least head first.
	h     []*stream
	files []storage.File
	// runs are the run files the merge reads, removed by Close.
	runs []string
	// left is the number of records not read yet.
	left int64
	err  error
}

// newReader merges streams, which read files, each sorted.
func newReader(cfg Config, streams []*stream, files []storage.File) (*Reader, error) {
	r := &Reader{fs: cfg.FS, files: files}
	for _, s := range streams {
		ok, err := s.advance()
		if err != nil {
			r.Close()
			return nil, err
		}
		if ok {
			r.h = append(r.h, s)
		}
	}
	for i := len(r.h)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	return r, nil
}

// down restores the heap below position i.
func (r *Reader) down(i int) {
	h := r.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && summary.CompareRecords(h[c+1].head, h[c].head) < 0 {
			c++
		}
		if summary.CompareRecords(h[c].head, h[i].head) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop advances past the head record.
func (r *Reader) pop() {
	ok, err := r.h[0].advance()
	if r.err = err; err != nil {
		return
	}
	if !ok {
		last := len(r.h) - 1
		r.h[0], r.h = r.h[last], r.h[:last]
	}
	r.down(0)
}

// Read reads the next records of the stream.
func (r *Reader) Read(p []summary.Record) (int, error) { return r.readWhile(p, nil) }

// Len is the number of records not read yet.
func (r *Reader) Len() int { return int(r.left) }

// readWhile reads like Read, but ends the stream — io.EOF — at the first
// record keep rejects, which stays next. A nil keep takes every record.
func (r *Reader) readWhile(p []summary.Record, keep func(summary.Record) bool) (int, error) {
	n := 0
	for n < len(p) && r.err == nil && len(r.h) > 0 {
		rec := r.h[0].head
		if keep != nil && !keep(rec) {
			break
		}
		p[n] = rec
		n++
		r.pop()
	}
	r.left -= int64(n)
	switch {
	case n > 0:
		return n, nil
	case r.err != nil:
		return 0, r.err
	}
	return 0, io.EOF
}

// While returns the stream's records up to the first one keep rejects, as
// a stream of its own whose Len is n, what its reader expects it to hold: it
// ends there, and the record keep rejected is the next one r, or another
// While of r, reads.
func (r *Reader) While(keep func(summary.Record) bool, n int) summary.RecordReader {
	return while{r, keep, n}
}

type while struct {
	r    *Reader
	keep func(summary.Record) bool
	n    int
}

func (w while) Read(p []summary.Record) (int, error) { return w.r.readWhile(p, w.keep) }
func (w while) Len() int                             { return w.n }

// Close releases the stream: it closes the run files and removes them, and
// lets go of the chunk an in-memory merge reads. It is idempotent.
func (r *Reader) Close() error {
	err := closeAll(r.files)
	cleanup(r.fs, r.runs)
	r.files, r.runs, r.h = nil, nil, nil
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
