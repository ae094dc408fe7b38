// Package fsim simulates the I/O path Pynamic stresses: shared objects
// staged on an NFS file system and read by every node of a parallel
// job, with each node's disk buffer cache absorbing repeat reads.
//
// Two of the paper's findings live here:
//
//   - Table IV's warm TotalView startup is ~2× faster than cold because
//     "the first invocation brings all the DLLs into the disk cache of
//     each node" (§IV.B).
//   - The conclusion (§V) questions whether NFS can serve DLLs to
//     extreme-scale machines at all without "OS extensions such as
//     collective opening of DLLs" — modelled by CollectiveRead, and
//     swept by experiment S3.
//
// The server model is a simple shared-resource queue: k clients reading
// concurrently each see latency scaled by the queue depth beyond the
// server's service concurrency, and bandwidth divided k ways. This
// deliberately reproduces the paper's qualitative point (per-client
// service degrades with client count) without pretending to model a
// specific filer.
package fsim

import (
	"fmt"
	"sort"
)

// Config holds the I/O cost model.
type Config struct {
	// NFS server characteristics.
	NFSLatency     float64 // seconds per request (RPC round trip + seek)
	NFSBandwidth   float64 // aggregate server bytes/sec
	NFSConcurrency int     // requests serviced in parallel before queuing

	// Local node page-cache characteristics.
	LocalLatency   float64 // seconds per cached open
	LocalBandwidth float64 // bytes/sec from the buffer cache
	NodeCacheBytes uint64  // disk buffer cache capacity per node

	// Interconnect for CollectiveRead fan-out.
	LinkLatency   float64
	LinkBandwidth float64
}

// Defaults returns a 2007-era NFS filer and client model consistent
// with the paper's cold/warm ratios: ~0.5 ms request latency, 300 MB/s
// aggregate server bandwidth, 64-way service concurrency; local buffer
// cache at 1.2 GB/s; 8 GiB of cacheable memory per node (the 2+ GB DSO
// set fits, which is what makes warm runs fast).
func Defaults() Config {
	return Config{
		NFSLatency:     500e-6,
		NFSBandwidth:   300e6,
		NFSConcurrency: 64,
		LocalLatency:   10e-6,
		LocalBandwidth: 1.2e9,
		NodeCacheBytes: 8 << 30,
		LinkLatency:    5e-6,
		LinkBandwidth:  900e6,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NFSLatency < 0 || c.LocalLatency < 0 || c.LinkLatency < 0:
		return fmt.Errorf("fsim: negative latency")
	case c.NFSBandwidth <= 0 || c.LocalBandwidth <= 0 || c.LinkBandwidth <= 0:
		return fmt.Errorf("fsim: bandwidth must be positive")
	case c.NFSConcurrency <= 0:
		return fmt.Errorf("fsim: NFS concurrency must be positive")
	}
	return nil
}

// Stats counts filesystem activity.
type Stats struct {
	NFSReads  uint64
	NFSBytes  uint64
	CacheHits uint64
	HitBytes  uint64
}

// FS is the simulated filesystem: a file namespace on one NFS server
// plus a disk buffer cache per node. It is not safe for concurrent use;
// the simulation is sequential. For goroutine-parallel simulated ranks,
// give each rank its own Fork and Absorb the forks back at a barrier.
type FS struct {
	cfg   Config
	files map[string]uint64 // path -> size
	nodes []*nodeCache
	// ioScale scales I/O seconds per node (straggler-node model); nil
	// means every node at 1.0.
	ioScale []float64
	stats   Stats
}

// New creates a filesystem serving nNodes client nodes.
func New(cfg Config, nNodes int) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nNodes <= 0 {
		return nil, fmt.Errorf("fsim: need at least one node, got %d", nNodes)
	}
	fs := &FS{
		cfg:   cfg,
		files: make(map[string]uint64),
		nodes: make([]*nodeCache, nNodes),
	}
	for i := range fs.nodes {
		fs.nodes[i] = newNodeCache(cfg.NodeCacheBytes)
	}
	return fs, nil
}

// Create installs (or replaces) a file of the given size.
func (fs *FS) Create(path string, size uint64) {
	fs.files[path] = size
}

// Stat returns a file's size.
func (fs *FS) Stat(path string) (uint64, error) {
	size, ok := fs.files[path]
	if !ok {
		return 0, &PathError{Op: "stat", Path: path}
	}
	return size, nil
}

// NumFiles returns how many files exist.
func (fs *FS) NumFiles() int { return len(fs.files) }

// PathError reports a missing file.
type PathError struct {
	Op   string
	Path string
}

func (e *PathError) Error() string {
	return "fsim: " + e.Op + " " + e.Path + ": no such file"
}

// Read simulates node nodeID reading the whole file at path while
// `clients` nodes are performing reads concurrently (including this
// one). It returns the elapsed seconds for this node and whether the
// read was served from the node's buffer cache. Reading a file inserts
// it into the node's cache.
func (fs *FS) Read(nodeID int, path string, clients int) (seconds float64, hit bool, err error) {
	return fs.ReadBytes(nodeID, path, ^uint64(0), clients)
}

// ReadBytes is Read limited to the first maxBytes of the file (tools
// read only the symbol table and debug sections they need). Caching is
// tracked whole-file: a partial read caches what it read.
func (fs *FS) ReadBytes(nodeID int, path string, maxBytes uint64, clients int) (float64, bool, error) {
	if nodeID < 0 || nodeID >= len(fs.nodes) {
		return 0, false, fmt.Errorf("fsim: node %d out of range", nodeID)
	}
	if clients < 1 {
		clients = 1
	}
	size, ok := fs.files[path]
	if !ok {
		return 0, false, &PathError{Op: "read", Path: path}
	}
	if size > maxBytes {
		size = maxBytes
	}
	node := fs.nodes[nodeID]
	if cached := node.lookup(path); cached >= size {
		fs.stats.CacheHits++
		fs.stats.HitBytes += size
		secs := fs.cfg.LocalLatency + float64(size)/fs.cfg.LocalBandwidth
		return secs * fs.nodeIOScale(nodeID), true, nil
	}
	fs.stats.NFSReads++
	fs.stats.NFSBytes += size
	node.insert(path, size)
	// Queue depth beyond the server's service concurrency multiplies
	// the request latency; aggregate bandwidth is divided among the
	// concurrent clients.
	queue := 1 + (clients-1)/fs.cfg.NFSConcurrency
	perClientBW := fs.cfg.NFSBandwidth / float64(clients)
	secs := fs.cfg.NFSLatency*float64(queue) + float64(size)/perClientBW
	return secs * fs.nodeIOScale(nodeID), false, nil
}

// nodeIOScale returns the I/O time multiplier for a node (1.0 unless
// SetNodeIOScale marked it degraded).
func (fs *FS) nodeIOScale(nodeID int) float64 {
	if fs.ioScale == nil {
		return 1
	}
	return fs.ioScale[nodeID]
}

// SetNodeIOScale marks a node's I/O path as degraded: every read by
// that node takes scale× the healthy time (an overloaded NIC, a sick
// local disk driver, a flaky IB link — the "straggler node" of large-
// job folklore). scale must be >= 1; Fork propagates the setting.
func (fs *FS) SetNodeIOScale(nodeID int, scale float64) error {
	if nodeID < 0 || nodeID >= len(fs.nodes) {
		return fmt.Errorf("fsim: node %d out of range", nodeID)
	}
	if scale < 1 {
		return fmt.Errorf("fsim: I/O scale %g < 1", scale)
	}
	if fs.ioScale == nil {
		fs.ioScale = make([]float64, len(fs.nodes))
		for i := range fs.ioScale {
			fs.ioScale[i] = 1
		}
	}
	fs.ioScale[nodeID] = scale
	return nil
}

// WarmNodes pre-populates the given nodes' buffer caches with every
// installed file, in deterministic path order — the state a node is in
// after a previous job of the same workload ran there (Table IV's warm
// rows, but selectable per node).
func (fs *FS) WarmNodes(nodeIDs ...int) error {
	paths := fs.Paths()
	for _, n := range nodeIDs {
		if n < 0 || n >= len(fs.nodes) {
			return fmt.Errorf("fsim: node %d out of range", n)
		}
		for _, p := range paths {
			fs.nodes[n].insert(p, fs.files[p])
		}
	}
	return nil
}

// Fork returns an independent view of the filesystem for one simulated
// process: a copy of the file namespace, deep-copied per-node cache
// state, the same per-node I/O scaling, and zero stats. Reads through
// the fork never touch the parent; Absorb folds a fork's cache state
// and stats back at a barrier.
func (fs *FS) Fork() *FS {
	f := &FS{
		cfg:   fs.cfg,
		files: make(map[string]uint64, len(fs.files)),
		nodes: make([]*nodeCache, len(fs.nodes)),
	}
	for p, sz := range fs.files {
		f.files[p] = sz
	}
	for i, n := range fs.nodes {
		f.nodes[i] = n.clone()
	}
	if fs.ioScale != nil {
		f.ioScale = append([]float64(nil), fs.ioScale...)
	}
	return f
}

// Absorb merges a fork back into fs: stats are added, the file
// namespace is unioned, and each node's cache gains the fork's entries
// (inserted LRU→MRU, so the fork's recency ordering wins for entries
// it touched). Merging forks in a fixed order keeps the combined state
// deterministic regardless of how the forks themselves were scheduled.
func (fs *FS) Absorb(other *FS) error { return fs.absorb(other, -1, -1) }

// AbsorbAs absorbs a fork that a process on node from produced as if a
// process on node to had produced it: the fork's caches for the two
// nodes trade places before the merge, and the fork is left unchanged.
// It is exact when the fork differs from the state it was forked from
// only on node from, and nodes from and to were in the same state
// (SameNodeState) there — the fork then is, node for node, the one the
// process on node to would have produced. One fork can so stand in for
// every process of a class of identical ones.
func (fs *FS) AbsorbAs(fork *FS, from, to int) error {
	if from < 0 || from >= len(fs.nodes) || to < 0 || to >= len(fs.nodes) {
		return fmt.Errorf("fsim: absorb from node %d as node %d out of range", from, to)
	}
	return fs.absorb(fork, from, to)
}

// absorb merges other into fs with other's caches for nodes from and
// to swapped (from = to = -1 swaps nothing).
func (fs *FS) absorb(other *FS, from, to int) error {
	if len(other.nodes) != len(fs.nodes) {
		return fmt.Errorf("fsim: absorb across node counts (%d vs %d)",
			len(other.nodes), len(fs.nodes))
	}
	for p, sz := range other.files {
		if sz > fs.files[p] {
			fs.files[p] = sz
		}
	}
	for i := range other.nodes {
		src := i
		switch i {
		case from:
			src = to
		case to:
			src = from
		}
		for e := other.nodes[src].tail; e != nil; e = e.prev {
			fs.nodes[i].insert(e.path, e.size)
		}
	}
	fs.stats.NFSReads += other.stats.NFSReads
	fs.stats.NFSBytes += other.stats.NFSBytes
	fs.stats.CacheHits += other.stats.CacheHits
	fs.stats.HitBytes += other.stats.HitBytes
	return nil
}

// CollectiveRead models the §V "collective opening of DLLs" extension:
// one node fetches the file from NFS and the content is fanned out over
// the interconnect with a binomial-tree broadcast, warming every node's
// cache. It returns the total elapsed seconds (the slowest node's
// completion time).
func (fs *FS) CollectiveRead(nodeIDs []int, path string) (float64, error) {
	if len(nodeIDs) == 0 {
		return 0, fmt.Errorf("fsim: collective read with no nodes")
	}
	size, ok := fs.files[path]
	if !ok {
		return 0, &PathError{Op: "collective-read", Path: path}
	}
	// Root fetch: a single uncontended NFS read (unless already warm).
	rootSecs, _, err := fs.Read(nodeIDs[0], path, 1)
	if err != nil {
		return 0, err
	}
	// Tree broadcast: ceil(log2(n)) rounds, each shipping the file.
	rounds := 0
	for n := 1; n < len(nodeIDs); n *= 2 {
		rounds++
	}
	bcast := float64(rounds) * (fs.cfg.LinkLatency + float64(size)/fs.cfg.LinkBandwidth)
	for _, n := range nodeIDs[1:] {
		if n >= 0 && n < len(fs.nodes) {
			fs.nodes[n].insert(path, size)
		}
	}
	return rootSecs + bcast, nil
}

// DropCaches empties every node's buffer cache (a "cold" run, as in
// Table IV's Cold Startup rows).
func (fs *FS) DropCaches() {
	for i := range fs.nodes {
		fs.nodes[i] = newNodeCache(fs.cfg.NodeCacheBytes)
	}
}

// Stats returns accumulated counters.
func (fs *FS) Stats() Stats { return fs.stats }

// CachedBytes reports how many bytes node nodeID currently caches.
func (fs *FS) CachedBytes(nodeID int) uint64 {
	if nodeID < 0 || nodeID >= len(fs.nodes) {
		return 0
	}
	return fs.nodes[nodeID].used
}

// SameNodeState reports whether reads on nodes a and b are
// indistinguishable: the same I/O scale and buffer caches holding the
// same files at the same sizes in the same recency order. Out-of-range
// nodes are never in the same state.
func (fs *FS) SameNodeState(a, b int) bool {
	if a < 0 || a >= len(fs.nodes) || b < 0 || b >= len(fs.nodes) {
		return false
	}
	if a == b {
		return true
	}
	if fs.nodeIOScale(a) != fs.nodeIOScale(b) {
		return false
	}
	x, y := fs.nodes[a], fs.nodes[b]
	if x.used != y.used || len(x.entries) != len(y.entries) {
		return false
	}
	for ex, ey := x.head, y.head; ex != nil; ex, ey = ex.next, ey.next {
		if ex.path != ey.path || ex.size != ey.size {
			return false
		}
	}
	return true
}

// CachedFile is one buffer-cache entry: a file and how many of its
// bytes the cache holds.
type CachedFile struct {
	Path string
	Size uint64
}

// NodeCache returns node nodeID's buffer-cache entries, most recently
// used first (nil for an out-of-range node).
func (fs *FS) NodeCache(nodeID int) []CachedFile {
	if nodeID < 0 || nodeID >= len(fs.nodes) {
		return nil
	}
	c := fs.nodes[nodeID]
	out := make([]CachedFile, 0, len(c.entries))
	for e := c.head; e != nil; e = e.next {
		out = append(out, CachedFile{Path: e.path, Size: e.size})
	}
	return out
}

// Paths returns all file paths in deterministic order.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// nodeCache is an LRU over whole files, bounded by bytes.
type nodeCache struct {
	capacity uint64
	used     uint64
	entries  map[string]*cacheEntry
	head     *cacheEntry // MRU
	tail     *cacheEntry // LRU
}

type cacheEntry struct {
	path       string
	size       uint64
	prev, next *cacheEntry
}

func newNodeCache(capacity uint64) *nodeCache {
	return &nodeCache{capacity: capacity, entries: make(map[string]*cacheEntry)}
}

// clone deep-copies the cache, preserving recency order (re-inserting
// LRU→MRU reproduces both the list order and the byte accounting).
func (c *nodeCache) clone() *nodeCache {
	out := newNodeCache(c.capacity)
	for e := c.tail; e != nil; e = e.prev {
		out.insert(e.path, e.size)
	}
	return out
}

// lookup returns the cached byte count for path (0 if absent) and
// refreshes its recency.
func (c *nodeCache) lookup(path string) uint64 {
	e, ok := c.entries[path]
	if !ok {
		return 0
	}
	c.moveToFront(e)
	return e.size
}

// insert caches size bytes of path, evicting LRU entries as needed. A
// file larger than the cache simply doesn't stick.
func (c *nodeCache) insert(path string, size uint64) {
	if e, ok := c.entries[path]; ok {
		if size > e.size {
			c.used += size - e.size
			e.size = size
		}
		c.moveToFront(e)
		c.evict()
		return
	}
	if size > c.capacity {
		return
	}
	e := &cacheEntry{path: path, size: size}
	c.entries[path] = e
	c.used += size
	c.pushFront(e)
	c.evict()
}

func (c *nodeCache) evict() {
	for c.used > c.capacity && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.path)
		c.used -= victim.size
	}
}

func (c *nodeCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *nodeCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *nodeCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
