// Package blockcache provides the shared, byte-budgeted block cache behind
// block-compressed run storage: a sharded LRU keyed by (file, block) holding
// decoded blocks. One cache instance is shared by every run of every
// partition child of an index (and by every query shard touching them), so
// the budget bounds the whole index's resident decoded-key memory — the
// mechanism that lets an index whose key arrays dwarf RAM answer queries
// with a fixed footprint.
//
// Values are opaque (any): the cache accounts them by the byte size the
// caller declares, which keeps this package free of a dependency on the
// codec whose blocks it holds.
package blockcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultBytes is the cache budget used when a caller passes no explicit
// budget (Config.CacheBytes == 0 at the public API).
const DefaultBytes = 128 << 20

// numShards spreads lock contention across query shards. Power of two.
const numShards = 16

// Key identifies one cached block: File is a process-unique file handle id
// (NewFileID), not a name — names are reused across rebuilds and crashes,
// ids never are, so a stale entry can never serve bytes for a newer file.
type Key struct {
	File  uint64
	Block int64
}

// Stats is a point-in-time counter snapshot, the operator's signal for
// sizing the budget: a high miss rate with Bytes pinned at Budget means the
// working set does not fit. ScanDecodes says so directly: it counts the
// blocks whole-run scans (exact search) decoded without caching them because
// the budget had no room, and stays 0 while every run's decoded blocks fit.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	ScanDecodes int64 `json:"scan_decodes"`
	// Bytes is the resident decoded-block total; Budget is the configured
	// ceiling it is kept under.
	Bytes  int64 `json:"bytes"`
	Budget int64 `json:"budget"`
}

type entry struct {
	key  Key
	val  any
	size int64
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*list.Element
	lru   *list.List // front = most recent
	bytes int64
}

// Cache is a sharded LRU over decoded blocks. Safe for concurrent use.
type Cache struct {
	shards      [numShards]shard
	shardBudget int64
	budget      int64
	nextID      atomic.Uint64
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	scanDecodes atomic.Int64
}

// New returns a cache bounded at budget bytes (DefaultBytes when <= 0).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBytes
	}
	c := &Cache{budget: budget, shardBudget: budget / numShards}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// NewFileID issues a process-unique id for one open file's blocks.
func (c *Cache) NewFileID() uint64 { return c.nextID.Add(1) }

func (c *Cache) shardFor(k Key) *shard {
	h := k.File*0x9e3779b97f4a7c15 ^ uint64(k.Block)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return &c.shards[h%numShards]
}

// Get returns the cached value for (file, block), if resident, and makes it
// the most recently used — the lookup of point reads.
func (c *Cache) Get(file uint64, block int64) (any, bool) { return c.get(file, block, true) }

// ScanGet is Get for a whole-run scan: a hit leaves the block where it is in
// the LRU order. A scan touches every resident block of its run, so
// refreshing them would leave the blocks point lookups inserted as the
// oldest, and the lookups' own Puts would then evict each other's blocks
// and never the scan's share.
func (c *Cache) ScanGet(file uint64, block int64) (any, bool) { return c.get(file, block, false) }

func (c *Cache) get(file uint64, block int64, promote bool) (any, bool) {
	k := Key{File: file, Block: block}
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.items[k]
	var val any
	if ok {
		if promote {
			s.lru.MoveToFront(el)
		}
		// Read under the lock: a concurrent Put of the same key refreshes
		// the entry in place.
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts (or refreshes) a decoded block of the given byte size,
// evicting least-recently-used entries until the shard is back under
// budget — the admission of point lookups. A value larger than the whole
// shard budget is not retained and evicts nothing (only a stale entry under
// its own key goes) — callers still hold the decoded block they passed in,
// so correctness never depends on residency.
func (c *Cache) Put(file uint64, block int64, val any, size int64) {
	if size < 1 {
		size = 1
	}
	k := Key{File: file, Block: block}
	s := c.shardFor(k)
	s.mu.Lock()
	if size > c.shardBudget {
		if el, ok := s.items[k]; ok {
			s.remove(el)
		}
		s.mu.Unlock()
		return
	}
	if el, ok := s.items[k]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		e.val, e.size = val, size
		s.lru.MoveToFront(el)
	} else {
		s.items[k] = s.lru.PushFront(&entry{key: k, val: val, size: size})
		s.bytes += size
	}
	evicted := int64(0)
	for s.bytes > c.shardBudget && s.lru.Len() > 0 {
		s.remove(s.lru.Back())
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// remove drops el from the shard. The caller holds s.mu.
func (s *shard) remove(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
}

// ScanRoom is the first half of a whole-run scan's admission, asked after
// a ScanGet missed: it reports whether size more bytes fit (file, block)'s shard
// without evicting anything. A scan that sweeps more blocks than the budget
// holds would otherwise push every one of them — and every block point
// lookups rely on — through the LRU and never hit; admitted only into free
// room, the first budget's worth stays resident from scan to scan. On false
// the caller decodes into scratch of its own, counted in Stats.ScanDecodes.
func (c *Cache) ScanRoom(file uint64, block int64, size int64) bool {
	s := c.shardFor(Key{File: file, Block: block})
	s.mu.Lock()
	ok := s.bytes+size <= c.shardBudget
	s.mu.Unlock()
	if !ok {
		c.scanDecodes.Add(1)
	}
	return ok
}

// ScanPut is the second half: it inserts the block decoded after ScanRoom
// said yes, unless the room went to someone else meanwhile (the block is
// then used uncached, and counted like a ScanRoom refusal). It never evicts,
// and the block enters as the least recently used: it is the first to go
// when a point lookup needs the room.
func (c *Cache) ScanPut(file uint64, block int64, val any, size int64) {
	k := Key{File: file, Block: block}
	s := c.shardFor(k)
	s.mu.Lock()
	_, resident := s.items[k]
	ok := !resident && s.bytes+size <= c.shardBudget
	if ok {
		s.items[k] = s.lru.PushBack(&entry{key: k, val: val, size: size})
		s.bytes += size
	}
	s.mu.Unlock()
	if !ok && !resident {
		c.scanDecodes.Add(1)
	}
}

// DropFile removes every resident block of one file — called when a run
// file is closed or deleted (compaction swap, index close), so the budget
// is not held by blocks that can never be requested again.
func (c *Cache) DropFile(file uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.items {
			if k.File != file {
				continue
			}
			s.remove(el)
		}
		s.mu.Unlock()
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		ScanDecodes: c.scanDecodes.Load(),
		Budget:      c.budget,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
