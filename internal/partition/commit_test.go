package partition

// The one commit path: the Composite commits the index's one manifest, so
// its failure rule and its effect on queries are the Composite's. A failed
// manifest commit is sticky — every later write and Sync returns it, the
// last committed manifest stays authoritative with every file it names on
// the device, and no acknowledged record is lost — and a manifest fsync,
// however slow, never gates a search.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
)

// TestManifestCommitFailureIsSticky fails the manifest fsync inside an LSM
// Flush that compacts and inside a tree Sync, unpartitioned and over three
// partitions. The call returns storage.ErrInjected, and so does every later
// Insert and Sync although the device works again; every file the last
// durable manifest names is still there; and after a crash the reopened
// index holds every acknowledged record.
func TestManifestCommitFailureIsSticky(t *testing.T) {
	const base, n = 128, 24
	stream := dataset.Generate(dataset.NewSeismic(), 5*n, ptLen, 17)
	for _, tc := range []struct {
		name string
		v    func(fs storage.FS) Variant
		// durable runs the acknowledged part of the workload on ix and
		// returns how many of stream's series it acknowledged; fail is the
		// call whose manifest commit fails.
		durable func(t *testing.T, ix *Composite) int
		fail    func(ix *Composite) error
	}{
		{"lsm-compacting-flush", func(fs storage.FS) Variant { return LSMVariant(lsmOptions(t, fs)) },
			func(t *testing.T, ix *Composite) int {
				// Three flushed batches; the fourth, acknowledged, fills
				// tier 0 at its flush.
				for i := range 4 {
					if err := ix.Insert(context.Background(), stream[i*n:(i+1)*n]); err != nil {
						t.Fatal(err)
					}
					if i < 3 {
						if err := ix.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				return 4 * n
			},
			(*Composite).Flush},
		{"tree-sync", func(fs storage.FS) Variant { return TreeVariant(treeOptions(t, fs)) },
			func(t *testing.T, ix *Composite) int {
				if err := ix.Insert(context.Background(), stream[:n]); err != nil {
					t.Fatal(err)
				}
				if err := ix.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := ix.Insert(context.Background(), stream[n:2*n]); err != nil {
					t.Fatal(err)
				}
				return n
			},
			(*Composite).Sync},
	} {
		for _, parts := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%dp", tc.name, parts), func(t *testing.T) {
				seed := rawSeed(t, base)
				ix, err := Build(tc.v(seed), parts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				inner := storage.NewFaultFS(seed).Recover(0)
				ffs := storage.NewFaultFS(inner)
				var armed atomic.Bool
				ffs.SetHook(func(op storage.Op, name string) {
					if op == storage.OpSync && name == manifest.FileName("x")+".tmp" && armed.CompareAndSwap(true, false) {
						ffs.FailAt(ffs.OpCount() + 1)
					}
				})
				if ix, err = Open(tc.v(ffs), parts); err != nil {
					t.Fatal(err)
				}
				acked := tc.durable(t, ix)
				armed.Store(true)
				if err := tc.fail(ix); !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("failed manifest commit: %v, want ErrInjected", err)
				}
				if armed.Load() {
					t.Fatal("the call reached no manifest commit")
				}
				if tc.name == "lsm-compacting-flush" && !strings.Contains(strings.Join(inner.Names(), " "), ".cmp.") {
					t.Fatalf("the failed flush compacted nothing: %v", inner.Names())
				}
				for what, call := range map[string]func() error{
					"Insert": func() error { return ix.Insert(context.Background(), stream[4*n:]) },
					"Sync":   ix.Sync,
				} {
					if err := call(); !errors.Is(err, storage.ErrInjected) {
						t.Fatalf("%s after the failed commit: %v, want ErrInjected", what, err)
					}
				}
				scrubClean(t, ffs)
				ffs.Crash()
				ix.Close()
				img := ffs.Recover(0)
				re, err := Open(tc.v(img), parts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := int(re.Count()) - base; got < acked {
					t.Fatalf("recovered %d series, %d were acknowledged", got, acked)
				}
				for _, s := range stream[:acked] {
					if res, err := re.ExactSearch(context.Background(), s); err != nil || res.Dist > 1e-9 {
						t.Fatalf("acknowledged series lost: nearest at %v (%v)", res.Dist, err)
					}
				}
				scrubClean(t, img)
			})
		}
	}
}

// TestQueriesProceedDuringSlowManifestCommit: the manifest commit holds the
// write lock, not the handle lock queries share, so a stalled fsync of the
// manifest temp file (a slow device, here a FaultFS hook parking the sync)
// must not gate searches.
func TestQueriesProceedDuringSlowManifestCommit(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dp", parts), func(t *testing.T) {
			ffs := storage.NewFaultFS(rawSeed(t, 200))
			var arm atomic.Bool
			block := make(chan struct{})
			var relOnce sync.Once
			release := func() { relOnce.Do(func() { close(block) }) }
			defer release()
			entered := make(chan struct{}, 1)
			tmpName := manifest.FileName("x") + ".tmp"
			ffs.SetHook(func(op storage.Op, name string) {
				if op == storage.OpSync && name == tmpName && arm.Load() {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-block
				}
			})
			ix, err := Build(LSMVariant(lsmOptions(t, ffs)), parts, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			batch := dataset.Generate(dataset.NewSeismic(), 10, ptLen, 3)
			if err := ix.Insert(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			q := batch[0]
			want, err := ix.ExactSearch(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}

			arm.Store(true)
			flushDone := make(chan error, 1)
			go func() { flushDone <- ix.Flush() }()
			<-entered // the flush is now parked inside the manifest fsync

			qDone := make(chan error, 1)
			var got core.Result
			go func() {
				var err error
				got, err = ix.ExactSearch(context.Background(), q)
				qDone <- err
			}()
			select {
			case err := <-qDone:
				if err != nil {
					release()
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				release()
				t.Fatal("ExactSearch blocked behind an in-flight manifest commit")
			}
			release()
			if err := <-flushDone; err != nil {
				t.Fatal(err)
			}
			if got.Pos != want.Pos || got.Dist != want.Dist {
				t.Fatalf("query during commit answered (%d, %v), want (%d, %v)",
					got.Pos, got.Dist, want.Pos, want.Dist)
			}
		})
	}
}
