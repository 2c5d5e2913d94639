package server

import (
	"container/list"
	"encoding/hex"
	"sync"
)

// cacheKey is the content address of a partition request: SHA-256 over the
// mesh bytes (or generator identity) plus the canonicalized options. Two
// requests with the same key are guaranteed byte-identical results because
// the partitioner is deterministic per seed.
type cacheKey [32]byte

// hex is the key's durable-store address.
func (k cacheKey) hex() string { return hex.EncodeToString(k[:]) }

// resultCache is a byte-budgeted LRU over encoded partition responses.
// Payloads are immutable once inserted (callers must not mutate them), so a
// hit can be served with zero copies.
type resultCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used; values are *cacheEntry
	items  map[cacheKey]*list.Element
}

type cacheEntry struct {
	key     cacheKey
	payload []byte
}

func newResultCache(budgetBytes int64) *resultCache {
	return &resultCache{
		budget: budgetBytes,
		order:  list.New(),
		items:  map[cacheKey]*list.Element{},
	}
}

// get returns the cached payload and marks the entry most-recently used.
func (c *resultCache) get(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// put inserts (or refreshes) an entry, then evicts least-recently-used
// entries until the byte budget holds. A payload larger than the whole
// budget is not cached at all.
func (c *resultCache) put(key cacheKey, payload []byte) {
	n := int64(len(payload))
	if n > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.used += n - int64(len(el.Value.(*cacheEntry).payload))
		el.Value.(*cacheEntry).payload = payload
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheEntry{key: key, payload: payload})
		c.used += n
	}
	for c.used > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= int64(len(ent.payload))
	}
}

// stats reports current occupancy.
func (c *resultCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, len(c.items)
}

// readThrough is the one lookup over a memory tier and the durable store:
// the LRU first, then the store's ns namespace (keyed by the hex address),
// re-warming the LRU on a store hit. tier reports "hit" or "store", or ""
// with a nil payload when neither holds the key.
func (s *Server) readThrough(c *resultCache, ns string, key cacheKey) (payload []byte, tier string) {
	if payload, ok := c.get(key); ok {
		return payload, "hit"
	}
	if s.store != nil {
		if payload, ok := s.store.Get(ns, key.hex()); ok {
			c.put(key, payload)
			return payload, "store"
		}
	}
	return nil, ""
}
