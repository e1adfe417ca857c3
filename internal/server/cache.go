package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheKey identifies one query result. gen is the dataset's registration
// generation, so results of an unloaded dataset can never serve a later
// dataset that reuses its name, even if the purge raced a concurrent put.
// epoch is the dataset's snapshot epoch (always 0 for immutable backends):
// applying edge updates bumps it, so entries computed on an earlier
// snapshot silently stop matching — updates invalidate by key, not by
// purge, and a purge racing a concurrent put cannot resurrect stale data.
type cacheKey struct {
	dataset string
	gen     uint64
	epoch   uint64
	k       int
	gamma   int
	mode    string
}

// resultCache is a bounded LRU over successful /v1/topk responses. An
// entry goes stale in one of two ways: its dataset is unloaded, which
// purges it, or a mutable dataset publishes a new snapshot, after which
// the entry's epoch key no longer matches and it ages out of the LRU (see
// cacheKey). Hit and miss counters are reported on /v1/stats.
type resultCache struct {
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	resp *topKResponse
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// get returns the cached response for key, updating recency and counters.
func (c *resultCache) get(key cacheKey) (*topKResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put inserts (or refreshes) a response, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) put(key cacheKey, resp *topKResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// invalidateDataset drops every entry belonging to the named dataset.
func (c *resultCache) invalidateDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.items {
		if key.dataset == name {
			c.ll.Remove(el)
			delete(c.items, key)
		}
	}
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
