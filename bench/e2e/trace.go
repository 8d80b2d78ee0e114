package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-db/coconut/internal/storage"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the run began; Parent is the span that caused this one (0 for the root) and
// Req groups the spans of one client operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts are the program's counters read at the span's two ends, so a
	// ratio can be taken over exactly the work the span covers.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so the untraced run pays one nil check per call.
type recorder struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64

	// cur is the span storage I/O hangs under: the single client's current
	// operation, or the phase while several goroutines work.
	cur atomic.Int64
	req atomic.Int64
}

// maxSpans bounds memory: a verification-bound exact pass issues tens of
// thousands of reads per query. Past the cap spans are counted, not kept;
// the I/O totals in ioTimes are never capped.
const maxSpans = 100_000

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// nextReq numbers one client operation.
func (r *recorder) nextReq() int64 {
	if r == nil {
		return 0
	}
	return r.req.Add(1)
}

// begin opens a span under parent and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{ID: int64(len(r.spans)) + 1, Parent: parent, Req: req, Name: name, Start: start})
	return int64(len(r.spans))
}

func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// annotate attaches counter deltas to a span.
func (r *recorder) annotate(id int64, counts map[string]int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Counts = counts
	r.mu.Unlock()
}

// scope opens a span, makes it the one I/O hangs under, and returns its id
// and the function that closes it and restores the previous scope.
func (r *recorder) scope(name string, parent, req int64) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	id := r.begin(name, parent, req)
	prev := r.cur.Swap(id)
	return id, func() {
		r.end(id)
		r.cur.Store(prev)
	}
}

func (r *recorder) write(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, r.dropped, r.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ioTimes is what the timing wrapper adds to storage.Stats: time spent in
// reads, writes and syncs, the sync count, and bytes written by file class.
type ioTimes struct {
	readNS, writeNS, syncNS atomic.Int64
	syncs                   atomic.Int64
	walBytes, runBytes      atomic.Int64
	rawBytes                atomic.Int64
}

type ioSnap struct{ readNS, writeNS, syncNS, syncs, wal, runs, raw int64 }

func (t *ioTimes) snap() ioSnap {
	return ioSnap{t.readNS.Load(), t.writeNS.Load(), t.syncNS.Load(), t.syncs.Load(),
		t.walBytes.Load(), t.runBytes.Load(), t.rawBytes.Load()}
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{a.readNS - b.readNS, a.writeNS - b.writeNS, a.syncNS - b.syncNS, a.syncs - b.syncs,
		a.wal - b.wal, a.runs - b.runs, a.raw - b.raw}
}

// timedFS is the benchmark's own wrapper around the storage the program
// writes to, used on the traced run only. It times every call from outside
// and records it as a span; the program's files and answers are unchanged.
type timedFS struct {
	storage.FS
	rec   *recorder
	times *ioTimes
}

func (t *timedFS) wrap(f storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	tf := &timedFile{File: f, fs: t}
	switch name := f.Name(); {
	case strings.Contains(name, ".wal."):
		tf.class = &t.times.walBytes
	case strings.Contains(name, ".run.") || strings.Contains(name, ".cmp."): // flushes and compactions
		tf.class = &t.times.runBytes
	case strings.HasSuffix(name, ".bin"):
		tf.class = &t.times.rawBytes
	}
	return tf, nil
}

func (t *timedFS) Create(name string) (storage.File, error) { return t.wrap(t.FS.Create(name)) }
func (t *timedFS) Open(name string) (storage.File, error)   { return t.wrap(t.FS.Open(name)) }

type timedFile struct {
	storage.File
	fs    *timedFS
	class *atomic.Int64 // bytes written to this kind of file; nil for the rest
}

func (f *timedFile) timed(name string, total *atomic.Int64, call func()) {
	rec := f.fs.rec
	id := rec.begin(name, rec.cur.Load(), rec.req.Load())
	start := time.Now()
	call()
	total.Add(int64(time.Since(start)))
	rec.end(id)
}

func (f *timedFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.timed("storage.read", &f.fs.times.readNS, func() { n, err = f.File.ReadAt(p, off) })
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.timed("storage.write", &f.fs.times.writeNS, func() { n, err = f.File.WriteAt(p, off) })
	if f.class != nil {
		f.class.Add(int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() (err error) {
	f.timed("storage.sync", &f.fs.times.syncNS, func() { err = f.File.Sync() })
	f.fs.times.syncs.Add(1)
	return err
}
