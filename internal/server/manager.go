// Package server implements the HTTP/JSON front end of coconut serve: a Manager
// of named indexes (each tagged with a UUID so stale clients are told the
// index they knew was swapped out), per-request deadlines, bounded
// admission (load shedding with 429 + Retry-After), health and stats
// endpoints, and graceful drain that cancels stuck requests at the drain
// deadline before Sync+Close-ing every index.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	coconut "github.com/coconut-db/coconut"
)

// Handle is one served index: its serving name, the UUID of this open
// generation and its series length beside the index itself. Every variant
// answers every query and takes appends.
type Handle struct {
	// Name is the index's serving name (the manifest prefix).
	Name string
	// UUID identifies this open handle. It changes every time the index
	// is (re)opened, so a client that cached it detects a swap: requests
	// carrying a stale UUID fail with 409 instead of silently hitting a
	// different index generation.
	UUID string
	// SeriesLen is the indexed series length; requests are validated
	// against it.
	SeriesLen int
	// Index is the served index.
	Index *coconut.Index
}

func newUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random uuid: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// NewHandle wraps ix for serving under name, with a fresh UUID.
func NewHandle(name string, ix *coconut.Index) *Handle {
	return &Handle{Name: name, UUID: newUUID(), SeriesLen: ix.SeriesLen(), Index: ix}
}

// NewTrieHandle is NewHandle with ix's series length passed in, kept only
// because bench/e2e names it; ROADMAP.md item 14 deletes it.
func NewTrieHandle(name string, ix *coconut.TrieIndex, seriesLen int) *Handle {
	return &Handle{Name: name, UUID: newUUID(), SeriesLen: seriesLen, Index: ix}
}

// Manager holds the set of indexes a server process serves, by name.
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

// CloseAll syncs and closes every handle.
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
		if err := h.Index.Sync(); err != nil && first == nil {
			first = fmt.Errorf("server: syncing %q: %w", h.Name, err)
		}
		if err := h.Index.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing %q: %w", h.Name, err)
		}
	}
	return first
}
