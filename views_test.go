//go:build unix

package coconut

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/storage"
)

// The raw series file is read through zero-copy views (storage.Viewer) where
// the file system offers them — OSFS on unix — and through ReadAt elsewhere.
// These tests hold the two paths to one behaviour on real files, and the view
// path to its three hazards: a file that grows under open handles, a shard
// that outlives Close, a page that cannot be read.

func viewsOSFS(t *testing.T) *storage.OSFS {
	t.Helper()
	fs, err := storage.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// noViewsFS hides the view capability of every file it opens: embedding the
// File interface forwards its methods and nothing else.
type noViewsFS struct{ storage.FS }

func (fs noViewsFS) Open(name string) (storage.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ storage.File }{f}, nil
}

// TestViewsParity: one built index, reopened on the bare file system and
// behind noViewsFS, answers every query identically for tree, trie and LSM,
// alone and partitioned, at QueryWorkers 1, 2 and 8. With one worker a
// query's read sequence is deterministic, and then its visit counts and the
// file system's counters — operations, sequential or random, bytes — are
// identical too: a view is accounted as the read it replaces.
func TestViewsParity(t *testing.T) {
	type outcome struct {
		res  Result
		knn  string
		io   IOStats
		kind string
	}
	for _, tc := range cancelCases {
		t.Run(fmt.Sprintf("%s-%dp", tc.variant, tc.parts), func(t *testing.T) {
			osfs := viewsOSFS(t)
			if err := buildCancelVariant(t, osfs, tc.variant, tc.parts).close(); err != nil {
				t.Fatal(err)
			}
			queries := cancelQueries(t)
			run := func(fs Storage, workers int) (outs []outcome) {
				v := cancelVariant(t, Config{Storage: fs, Name: "cx", QueryWorkers: workers}, tc.variant, true)
				defer v.close()
				note := func(kind string, res Result, knn []Neighbor, err error, before IOStats) {
					if err != nil {
						t.Fatalf("%s: %v", kind, err)
					}
					outs = append(outs, outcome{res, fmt.Sprint(knn), osfs.Stats().Snapshot().Sub(before), kind})
				}
				for _, q := range queries {
					before := osfs.Stats().Snapshot()
					res, err := v.approx(context.Background(), q)
					note("approx", res, nil, err, before)
					before = osfs.Stats().Snapshot()
					res, err = v.search(context.Background(), q)
					note("exact", res, nil, err, before)
					if v.knn != nil {
						before = osfs.Stats().Snapshot()
						nn, err := v.knn(context.Background(), q, 5)
						note("knn", Result{}, nn, err, before)
					}
				}
				return outs
			}
			for _, workers := range []int{1, 2, 8} {
				viewed, copied := run(osfs, workers), run(noViewsFS{osfs}, workers)
				for i, a := range viewed {
					b := copied[i]
					if workers > 1 { // shards prune each other as timing has it
						a.res.VisitedSeries, a.res.VisitedLeaves, a.io = 0, 0, IOStats{}
						b.res.VisitedSeries, b.res.VisitedLeaves, b.io = 0, 0, IOStats{}
					} else if a.io.BytesRead == 0 {
						t.Errorf("workers %d, %s %d: no bytes read", workers, a.kind, i)
					}
					if a != b {
						t.Errorf("workers %d, %s %d:\n views  %+v\n ReadAt %+v", workers, a.kind, i, a, b)
					}
				}
			}
		})
	}
}

// TestViewsSeeAcknowledgedInserts: an LSM index — alone, and partitioned, whose
// children read through their own handles the file their parent appends to —
// finds every inserted series at distance 0 by an exact search issued as soon
// as its Insert is acknowledged, while other queries keep the mapping in use.
func TestViewsSeeAcknowledgedInserts(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dp", parts), func(t *testing.T) {
			v := buildCancelVariant(t, viewsOSFS(t), "lsm", parts)
			defer v.close()
			stop, done, qs := make(chan struct{}), make(chan struct{}), cancelQueries(t)
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := v.search(context.Background(), qs[i%len(qs)]); err != nil {
						t.Errorf("concurrent search: %v", err)
						return
					}
				}
			}()
			fresh, err := GenerateQueries(Seismic, 240, cancelLen, 11)
			if err != nil {
				t.Fatal(err)
			}
			for len(fresh) > 0 {
				batch := fresh[:8]
				fresh = fresh[8:]
				if err := v.insert(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				for _, s := range batch {
					if res, err := v.search(context.Background(), s); err != nil || res.Distance != 0 {
						t.Fatalf("acknowledged series: %+v, %v, want distance 0", res, err)
					}
				}
			}
			close(stop)
			<-done
		})
	}
}

// viewStallFS forwards everything to an OSFS, views included, and can park
// one View — the slice already in hand — until released.
type viewStallFS struct {
	storage.FS
	mu       sync.Mutex
	views    int // Views served so far
	stallAt  int // the View to park, counted as views is
	parked   chan struct{}
	release  chan struct{}
	unpinned chan struct{} // one token per UnpinViews, dropped when full
}

func (fs *viewStallFS) Open(name string) (storage.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &viewStallFile{File: f, Viewer: f.(storage.Viewer), fs: fs}, nil
}

type viewStallFile struct {
	storage.File
	storage.Viewer
	fs *viewStallFS
}

func (f *viewStallFile) View(off int64, n int) ([]byte, error) {
	b, err := f.Viewer.View(off, n)
	f.fs.mu.Lock()
	f.fs.views++
	park := f.fs.views == f.fs.stallAt
	f.fs.mu.Unlock()
	if park {
		close(f.fs.parked)
		<-f.fs.release
	}
	return b, err
}

func (f *viewStallFile) UnpinViews() {
	f.Viewer.UnpinViews()
	select {
	case f.fs.unpinned <- struct{}{}:
	default:
	}
}

func (fs *viewStallFS) served() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.views
}

// TestViewsOutliveClose: a verification shard parked inside a view, its query
// cancelled and its index closed, reads on from the mapping when released —
// the pin it took keeps the pages — and its unpin, the last, unmaps the file.
func TestViewsOutliveClose(t *testing.T) {
	for _, tc := range cancelCases {
		t.Run(fmt.Sprintf("%s-%dp", tc.variant, tc.parts), func(t *testing.T) {
			osfs := viewsOSFS(t)
			fs := &viewStallFS{FS: osfs, parked: make(chan struct{}), release: make(chan struct{}), unpinned: make(chan struct{}, 1)}
			v := buildCancelVariant(t, fs, tc.variant, tc.parts)
			q := cancelQueries(t)[0]
			// As armStallAtLastRead: the warm query's view count is stable, and
			// its last view belongs to the sharded verification scan.
			if _, err := v.search(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			before := fs.served()
			if _, err := v.search(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			fs.mu.Lock()
			fs.stallAt = fs.views + (fs.views - before)
			fs.mu.Unlock()
			if fs.stallAt == fs.served() {
				t.Fatal("query served no views; nothing to stall")
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := v.search(ctx, q)
				errc <- err
			}()
			select {
			case <-fs.parked:
			case err := <-errc:
				t.Fatalf("query finished (%v) before its last view", err)
			case <-time.After(10 * time.Second):
				t.Fatal("query never reached its last view")
			}
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query returned %v, want context.Canceled", err)
			}
			if err := v.close(); err != nil {
				t.Fatal(err)
			}
			raw := filepath.Join(osfs.Root(), "data.bin")
			maps, err := os.ReadFile("/proc/self/maps")
			onLinux := err == nil
			if onLinux && !strings.Contains(string(maps), raw) {
				t.Fatal("Close unmapped the file under a pinned shard")
			}
			select {
			case <-fs.unpinned: // tokens of the queries so far
			default:
			}
			close(fs.release) // the shard verifies and measures the parked slice, and may read on
			select {
			case <-fs.unpinned:
			case <-time.After(10 * time.Second):
				t.Fatal("the detached shard never unpinned")
			}
			if maps, _ := os.ReadFile("/proc/self/maps"); onLinux && strings.Contains(string(maps), raw) {
				t.Fatal("the raw file is still mapped after Close and the last unpin")
			}
		})
	}
}

// TestViewsTruncatedFileIsAnError: the raw file of an open index — its
// mapping in use — is truncated by someone else. The next exact query fails
// with an error wrapping io.ErrUnexpectedEOF, as a short ReadAt would, the
// process lives, and another index in it answers as before.
func TestViewsTruncatedFileIsAnError(t *testing.T) {
	for _, variant := range []string{"tree", "trie", "lsm"} {
		t.Run(variant, func(t *testing.T) {
			osfs := viewsOSFS(t)
			victim := buildCancelVariant(t, osfs, variant, 1)
			defer victim.close()
			bystander := buildCancelVariant(t, viewsOSFS(t), variant, 1)
			defer bystander.close()
			q := cancelQueries(t)[0]
			want, err := bystander.search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := victim.search(context.Background(), q); err != nil || got != want {
				t.Fatalf("before the truncation: %+v, %v, want %+v", got, err, want)
			}
			if err := os.Truncate(filepath.Join(osfs.Root(), "data.bin"), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := victim.search(context.Background(), q); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("search over a truncated raw file: %v, want io.ErrUnexpectedEOF", err)
			}
			if v := victim.knn; v != nil {
				if _, err := v(context.Background(), q, 3); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("k-NN over a truncated raw file: %v, want io.ErrUnexpectedEOF", err)
				}
			}
			if got, err := bystander.search(context.Background(), q); err != nil || got != want {
				t.Fatalf("the untouched index afterwards: %+v, %v, want %+v", got, err, want)
			}
		})
	}
}
