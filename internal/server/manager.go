// Package server implements the coconutd HTTP/JSON front end: a Manager
// of named indexes (each tagged with a UUID so stale clients are told the
// index they knew was swapped out), per-request deadlines, bounded
// admission (load shedding with 429 + Retry-After), health and stats
// endpoints, and graceful drain that cancels stuck requests at the drain
// deadline before Sync+Close-ing every index.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
)

// Handle is one served index: the capability set of its variant behind a
// uniform surface. Nil capability funcs mean the variant does not support
// the operation (e.g. insert on a trie).
type Handle struct {
	// Name is the index's serving name (the manifest prefix).
	Name string
	// UUID identifies this open handle. It changes every time the index
	// is (re)opened, so a client that cached it detects a swap: requests
	// carrying a stale UUID fail with 409 instead of silently hitting a
	// different index generation.
	UUID string
	// Variant is tree, trie, or lsm.
	Variant string
	// SeriesLen is the indexed series length; requests are validated
	// against it.
	SeriesLen int

	// Search, SearchApprox, SearchKNN and Close are the handle's query
	// surface, for the HTTP handlers and the coconut CLI alike; SearchKNN is
	// nil where the variant has no k-NN.
	Search       func(ctx context.Context, q coconut.Series) (coconut.Result, error)
	SearchApprox func(ctx context.Context, q coconut.Series, radius int) (coconut.Result, error)
	SearchKNN    func(ctx context.Context, q coconut.Series, k int) ([]coconut.Neighbor, error)
	Close        func() error

	insert     func(ctx context.Context, batch []coconut.Series) error
	sync       func() error
	count      func() int64
	degraded   func() bool
	cacheStats func() coconut.CacheStats
}

// Count returns the number of series the handle serves.
func (h *Handle) Count() int64 { return h.count() }

// Degraded reports whether the handle was opened over quarantined
// artifacts and answers cover only the healthy remainder.
func (h *Handle) Degraded() bool { return h.degraded() }

// CacheStats returns the handle's block-cache counters; zeros for
// variants (or layouts) that read no block cache.
func (h *Handle) CacheStats() coconut.CacheStats {
	if h.cacheStats == nil {
		return coconut.CacheStats{}
	}
	return h.cacheStats()
}

func newUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random uuid: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// NewTreeHandle wraps a Coconut-Tree index for serving.
func NewTreeHandle(name string, ix *coconut.TreeIndex, seriesLen int) *Handle {
	return &Handle{
		Name:         name,
		UUID:         newUUID(),
		Variant:      "tree",
		SeriesLen:    seriesLen,
		Search:       ix.SearchCtx,
		SearchApprox: ix.SearchApproxCtx,
		SearchKNN:    ix.SearchKNNCtx,
		insert:       ix.InsertCtx,
		sync:         ix.Sync,
		Close:        ix.Close,
		count:        ix.Count,
		degraded:     ix.Degraded,
	}
}

// NewTrieHandle wraps a Coconut-Trie index for serving (read-only: the
// trie is immutable, so it has no insert capability).
func NewTrieHandle(name string, ix *coconut.TrieIndex, seriesLen int) *Handle {
	return &Handle{
		Name:         name,
		UUID:         newUUID(),
		Variant:      "trie",
		SeriesLen:    seriesLen,
		Search:       ix.SearchCtx,
		SearchApprox: ix.SearchApproxCtx,
		Close:        ix.Close,
		count:        ix.Count,
		degraded:     ix.Degraded,
	}
}

// NewLSMHandle wraps a Coconut-LSM index for serving. The approximate
// search ignores the radius parameter (the LSM window is sized by its
// own merge policy).
func NewLSMHandle(name string, ix *coconut.LSMIndex, seriesLen int) *Handle {
	return &Handle{
		Name:      name,
		UUID:      newUUID(),
		Variant:   "lsm",
		SeriesLen: seriesLen,
		Search:    ix.SearchCtx,
		SearchApprox: func(ctx context.Context, q coconut.Series, _ int) (coconut.Result, error) {
			return ix.SearchApproxCtx(ctx, q)
		},
		insert:     ix.InsertCtx,
		sync:       ix.Sync,
		Close:      ix.Close,
		count:      ix.Count,
		degraded:   ix.Degraded,
		cacheStats: ix.CacheStats,
	}
}

// OpenHandle reopens the persisted index cfg names, detecting its variant
// from the manifest (a partitioned index is served as its child variant).
func OpenHandle(ctx context.Context, cfg coconut.Config) (*Handle, error) {
	m, err := core.LoadManifest(cfg.Storage, cfg.Name)
	if err != nil {
		return nil, err
	}
	variant := m.Variant
	if variant == manifest.VariantPartitioned && m.Part != nil {
		variant = m.Part.ChildVariant
	}
	switch variant {
	case manifest.VariantTree:
		ix, err := coconut.OpenTreeIndexCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return NewTreeHandle(cfg.Name, ix, m.SeriesLen), nil
	case manifest.VariantTrie:
		ix, err := coconut.OpenTrieIndexCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return NewTrieHandle(cfg.Name, ix, m.SeriesLen), nil
	case manifest.VariantLSM:
		ix, err := coconut.OpenLSMIndexCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return NewLSMHandle(cfg.Name, ix, m.SeriesLen), nil
	}
	return nil, fmt.Errorf("server: index %q has unknown variant %q", cfg.Name, variant)
}

// Manager holds the set of indexes a coconutd process serves, by name.
type Manager struct {
	mu     sync.Mutex
	byName map[string]*Handle
	closed bool
}

// NewManager returns an empty Manager.
func NewManager() *Manager {
	return &Manager{byName: make(map[string]*Handle)}
}

// Add registers (or replaces) a handle under its name. Replacing an old
// handle does not close it — swap explicitly and close the old one after
// in-flight requests drain.
func (m *Manager) Add(h *Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byName[h.Name] = h
}

// Get returns the handle serving name.
func (m *Manager) Get(name string) (*Handle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.byName[name]
	return h, ok
}

// List returns the handles sorted by name.
func (m *Manager) List() []*Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Handle, 0, len(m.byName))
	for _, h := range m.byName {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CloseAll syncs (where the variant supports it) and closes every handle.
// It is idempotent; the underlying Close implementations are themselves
// safe to race with in-flight cancelled queries, so CloseAll may run while
// force-cancelled requests are still unwinding.
func (m *Manager) CloseAll() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	handles := make([]*Handle, 0, len(m.byName))
	for _, h := range m.byName {
		handles = append(handles, h)
	}
	m.mu.Unlock()
	var first error
	for _, h := range handles {
		if h.sync != nil {
			if err := h.sync(); err != nil && first == nil {
				first = fmt.Errorf("server: syncing %q: %w", h.Name, err)
			}
		}
		if err := h.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing %q: %w", h.Name, err)
		}
	}
	return first
}
