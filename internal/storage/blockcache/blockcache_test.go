package blockcache

import (
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 0, "a", 100)
	v, ok := c.Get(1, 0)
	if !ok || v.(string) != "a" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	c.Put(1, 0, "b", 200) // refresh same key
	v, _ = c.Get(1, 0)
	if v.(string) != "b" {
		t.Fatalf("refresh lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Bytes != 200 || st.Budget != 1<<20 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEviction(t *testing.T) {
	// numShards shards × 64-byte shard budget. All entries for one file
	// block sequence spread over shards; overfill a single (file, block)
	// shard by reusing one key's shard via identical keys.
	c := New(numShards * 64)
	for i := int64(0); i < 1000; i++ {
		c.Put(7, i, i, 48)
	}
	st := c.Stats()
	if st.Bytes > c.budget {
		t.Fatalf("resident %d exceeds budget %d", st.Bytes, c.budget)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions after overfill")
	}
	// LRU: the most recently inserted block of some shard must survive.
	if _, ok := c.Get(7, 999); !ok {
		t.Fatal("most recent insert evicted")
	}
}

func TestLRUOrder(t *testing.T) {
	// Shard budget 130: holds two 60-byte entries, a third evicts one.
	c := New(numShards * 130)
	// Find two blocks in the same shard.
	s0 := c.shardFor(Key{File: 1, Block: 0})
	var b1 int64 = -1
	for i := int64(1); i < 1000; i++ {
		if c.shardFor(Key{File: 1, Block: i}) == s0 {
			b1 = i
			break
		}
	}
	if b1 < 0 {
		t.Fatal("no shard collision found")
	}
	c.Put(1, 0, "old", 60)
	c.Put(1, b1, "new", 60)
	c.Get(1, 0) // touch old → b1 becomes LRU
	// Third entry in the same shard forces one eviction.
	var b2 int64 = -1
	for i := b1 + 1; i < 5000; i++ {
		if c.shardFor(Key{File: 1, Block: i}) == s0 {
			b2 = i
			break
		}
	}
	if b2 < 0 {
		t.Fatal("no second collision found")
	}
	c.Put(1, b2, "third", 60)
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("recently touched entry evicted")
	}
	if _, ok := c.Get(1, b1); ok {
		t.Fatal("LRU entry survived")
	}
}

// sameShard returns n blocks of file that share a shard with block 0.
func sameShard(t *testing.T, c *Cache, file uint64, n int) []int64 {
	t.Helper()
	s0 := c.shardFor(Key{File: file, Block: 0})
	out := []int64{0}
	for i := int64(1); len(out) < n && i < 100000; i++ {
		if c.shardFor(Key{File: file, Block: i}) == s0 {
			out = append(out, i)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d of %d blocks in one shard", len(out), n)
	}
	return out
}

func TestOversizedNotRetained(t *testing.T) {
	c := New(numShards * 10)
	b := sameShard(t, c, 1, 4)
	c.Put(1, b[1], "n1", 4)
	c.Put(1, b[2], "n2", 4)
	c.Put(1, b[3], "stale", 2)
	c.Put(1, b[0], "huge", 1<<20)
	if _, ok := c.Get(1, b[0]); ok {
		t.Fatal("oversized value retained")
	}
	// An oversized refresh drops the value it replaces, and only that.
	c.Put(1, b[3], "huge", 1<<20)
	if _, ok := c.Get(1, b[3]); ok {
		t.Fatal("stale value survived an oversized refresh of its key")
	}
	for _, blk := range b[1:3] {
		if _, ok := c.Get(1, blk); !ok {
			t.Fatalf("block %d evicted by an oversized put to its shard", blk)
		}
	}
	if st := c.Stats(); st.Bytes != 8 || st.Evictions != 0 {
		t.Fatalf("after oversized puts: %+v", st)
	}
}

// scanBlock is what a whole-run scan does for one block: a hit, or a miss
// that is admitted only into free room.
func scanBlock(c *Cache, file uint64, block, size int64) {
	if _, ok := c.ScanGet(file, block); ok {
		return
	}
	if c.ScanRoom(file, block, size) {
		c.ScanPut(file, block, block, size)
	}
}

// TestScanAdmission: cyclic scans over three times the budget keep a stable
// share resident instead of thrashing, and never evict.
func TestScanAdmission(t *testing.T) {
	const size, perShard = 100, 8
	c := New(numShards * perShard * size)
	const blocks = 3 * numShards * perShard
	// A point lookup's block, inserted the LRU way before any scan.
	c.Put(9, 0, "lookup", size)
	var prev Stats
	for scan := 0; scan < 3; scan++ {
		for b := int64(0); b < blocks; b++ {
			scanBlock(c, 1, b, size)
		}
		st := c.Stats()
		hits, misses := st.Hits-prev.Hits, st.Misses-prev.Misses
		if ratio := float64(hits) / float64(hits+misses); scan > 0 && ratio < 0.25 {
			t.Fatalf("scan %d: hit ratio %.3f (%d hits, %d misses), want >= 0.25", scan, ratio, hits, misses)
		}
		if st.Evictions != 0 {
			t.Fatalf("scan %d evicted %d blocks", scan, st.Evictions)
		}
		if st.Bytes > st.Budget {
			t.Fatalf("scan %d: resident %d over budget %d", scan, st.Bytes, st.Budget)
		}
		if scan > 0 && st.ScanDecodes-prev.ScanDecodes != misses {
			t.Fatalf("scan %d: %d scan decodes for %d misses", scan, st.ScanDecodes-prev.ScanDecodes, misses)
		}
		prev = st
	}
	if _, ok := c.Get(9, 0); !ok {
		t.Fatal("a scan evicted a block a point lookup inserted")
	}
	// A cache that fits admits everything and counts no scan decode.
	fits := New(numShards * blocks * size)
	for scan := 0; scan < 2; scan++ {
		for b := int64(0); b < blocks; b++ {
			scanBlock(fits, 1, b, size)
		}
	}
	if st := fits.Stats(); st.ScanDecodes != 0 || st.Hits != blocks || st.Misses != blocks {
		t.Fatalf("fitting cache: %+v", st)
	}
}

// TestScanKeepsLookupWorkingSet: a scan's hits and admissions never outrank
// what point lookups cached, so when scans and lookups interleave, a lookup
// that needs room takes it from the scan's share and the lookups' working
// set stays resident.
func TestScanKeepsLookupWorkingSet(t *testing.T) {
	const size = 100
	c := New(numShards * 8 * size) // a shard holds 8 blocks
	b := sameShard(t, c, 1, 29)    // one run: b[0:4] the lookups', b[28] theirs later
	lookup := func(blk int64) (hit bool) {
		if _, hit = c.Get(1, blk); !hit {
			c.Put(1, blk, blk, size)
		}
		return hit
	}
	for _, blk := range b[:4] {
		lookup(blk)
	}
	for round := 0; round < 3; round++ {
		for _, blk := range b { // hits b[0:4], fills the room with b[4:8]
			scanBlock(c, 1, blk, size)
		}
		// The working set grows by one block: the room comes from the scan.
		if lookup(b[28]) != (round > 0) {
			t.Fatalf("round %d: new lookup block hit = %v", round, round == 0)
		}
		for _, blk := range b[:4] {
			if !lookup(blk) {
				t.Fatalf("round %d: block %d of the lookups' working set was evicted", round, blk)
			}
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 8*size {
		t.Fatalf("stats: %+v, want the one eviction of a scan-admitted block and a full shard", st)
	}
	for _, blk := range b[4:7] {
		if _, ok := c.ScanGet(1, blk); !ok {
			t.Fatalf("scan-admitted block %d gone though nothing needed its room", blk)
		}
	}
}

// TestScanPutLostRoom: room promised by ScanRoom and taken by a Put in
// between is not taken back by evicting.
func TestScanPutLostRoom(t *testing.T) {
	c := New(numShards * 100)
	b := sameShard(t, c, 1, 2)
	if !c.ScanRoom(1, b[0], 60) {
		t.Fatal("empty shard has no room")
	}
	c.Put(1, b[1], "lookup", 60)
	c.ScanPut(1, b[0], "scan", 60)
	if _, ok := c.Get(1, b[0]); ok {
		t.Fatal("scan block inserted without room")
	}
	if _, ok := c.Get(1, b[1]); !ok {
		t.Fatal("scan insert evicted the lookup's block")
	}
	if st := c.Stats(); st.ScanDecodes != 1 || st.Evictions != 0 || st.Bytes != 60 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestScanAdmissionConcurrent: 8 goroutines scanning and looking up at once
// never push resident bytes over the budget (run under -race).
func TestScanAdmissionConcurrent(t *testing.T) {
	c := New(numShards * 512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 3000; i++ {
				if g%2 == 0 {
					scanBlock(c, uint64(g%3), i%200, 96)
				} else if _, ok := c.Get(uint64(g%3), i%50); !ok {
					c.Put(uint64(g%3), i%50, i, 96)
				}
				if st := c.Stats(); st.Bytes < 0 || st.Bytes > st.Budget {
					t.Errorf("resident %d outside [0, %d]", st.Bytes, st.Budget)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDropFile(t *testing.T) {
	c := New(1 << 20)
	for i := int64(0); i < 100; i++ {
		c.Put(1, i, i, 10)
		c.Put(2, i, i, 10)
	}
	c.DropFile(1)
	for i := int64(0); i < 100; i++ {
		if _, ok := c.Get(1, i); ok {
			t.Fatalf("file 1 block %d survived DropFile", i)
		}
		if _, ok := c.Get(2, i); !ok {
			t.Fatalf("file 2 block %d dropped collaterally", i)
		}
	}
	if st := c.Stats(); st.Bytes != 1000 {
		t.Fatalf("resident after drop: %+v", st)
	}
}

func TestNewFileIDUnique(t *testing.T) {
	c := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := c.NewFileID()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestConcurrent(t *testing.T) {
	c := New(numShards * 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			file := uint64(g % 3)
			for i := int64(0); i < 2000; i++ {
				switch i % 4 {
				case 0:
					c.Put(file, i%64, i, 32)
				case 1:
					// The key case 0 just put — and that the goroutines
					// sharing this file keep refreshing.
					c.Get(file, (i-1)%64)
				case 2:
					c.Stats()
				case 3:
					if i%512 == 3 {
						c.DropFile(file)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes < 0 || st.Bytes > c.budget {
		t.Fatalf("bytes accounting broken: %+v", st)
	}
}
