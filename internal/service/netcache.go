package service

import (
	"container/list"
	"sync"

	"chaseci/internal/ffn"
)

// netCacheBytes bounds the networks a runner keeps for reuse, charged by
// ffn.(*Network).InferenceBytes: weights plus one flood scratch. A network
// larger than the whole budget is built per job.
const netCacheBytes = 32 << 20

// netKey identifies an untrained network: ffn.NewNetwork is a pure
// function of the config and the weight seed.
type netKey struct {
	cfg  ffn.Config
	seed uint64
}

type netEntry struct {
	key   netKey
	net   *ffn.Network
	bytes int
}

// netCache shares untrained networks between jobs that name the same
// (config, seed). Only inference may use a cached network — a job that
// trains builds its own — and PrepareInference runs before insertion, so
// concurrent floods only ever read a shared network.
type netCache struct {
	mu    sync.Mutex
	nets  map[netKey]*list.Element
	lru   *list.List // front = most recent; values are *netEntry
	bytes int
}

func newNetCache() *netCache {
	return &netCache{nets: make(map[netKey]*list.Element), lru: list.New()}
}

// get returns the network for (cfg, seed), building it on a miss. A build
// runs outside the lock; when two misses race, the first insert wins and
// both callers get weights identical to a fresh NewNetwork's.
func (c *netCache) get(cfg ffn.Config, seed uint64) (*ffn.Network, error) {
	key := netKey{cfg: cfg, seed: seed}
	c.mu.Lock()
	if el, ok := c.nets[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*netEntry).net, nil
	}
	c.mu.Unlock()

	net, err := ffn.NewNetwork(cfg, seed)
	if err != nil {
		return nil, err
	}
	cost := net.InferenceBytes()
	if cost > netCacheBytes {
		return net, nil
	}
	net.PrepareInference()

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.nets[key]; ok {
		return el.Value.(*netEntry).net, nil
	}
	c.nets[key] = c.lru.PushFront(&netEntry{key: key, net: net, bytes: cost})
	c.bytes += cost
	for c.bytes > netCacheBytes {
		ent := c.lru.Remove(c.lru.Back()).(*netEntry)
		delete(c.nets, ent.key)
		c.bytes -= ent.bytes
	}
	return net, nil
}
