package jobstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const (
	// diskFormat versions the on-disk layout. A directory whose
	// MANIFEST disagrees is wiped and re-created, mirroring
	// internal/castore's fail-forward manifest discipline.
	diskFormat   = "pynamic-jobstore/1"
	manifestName = "MANIFEST"
	walPrefix    = "wal."
	walSuffix    = ".log"
	snapPrefix   = "snapshot."
	snapSuffix   = ".json"

	// compactEvery is the floor of the compaction trigger. A node folds
	// its WAL into a snapshot once the log holds at least compactEvery
	// records and at least as many records as the table has rows, so
	// each O(rows) snapshot is paid for by at least rows appends:
	// compaction work stays linear in mutations, and replay at open
	// reads at most twice the table.
	compactEvery = 128

	// walTempName is where compaction builds a node's fresh WAL before
	// renaming it into place. One process owns a node id, so the name
	// is unique; the dot keeps it out of every store file pattern.
	walTempName = ".tmp-wal."
)

// Disk is the durable Store: a shared directory where every node
// appends mutations to a private JSON WAL (one record per line) and
// periodically compacts it into a private snapshot via temp-file +
// atomic rename. Reads merge the node's own table with every sibling
// file in the directory, so a fleet sharing one -cache-dir sees one
// converged job table without any locking across processes; the merge
// rule (see mergeJob) makes concurrent claims safe because duplicate
// execution of a content-addressed spec is idempotent.
//
// Crash safety: a record is recovered if its WAL line was fully
// written. Snapshots carry the sequence number of the last folded
// record, so replaying a stale WAL over a newer snapshot (the crash
// window between snapshot rename and WAL replacement) cannot regress
// state — replay skips records at or below the snapshot's watermark.
type Disk struct {
	dir  string
	node string
	stem string // sanitized node name used in this node's filenames

	mu          sync.Mutex
	t           *table
	seq         uint64 // this node's monotonic mutation counter
	wal         *os.File
	walRecords  int
	walTorn     bool // a failed append may have left part of a line in wal
	closed      bool
	stamps      map[string]fileStamp // sibling snapshot path → last-loaded identity
	tails       map[string]*walTail  // sibling WAL path → read position
	siblingSeqs map[string]uint64    // sibling stem → snapshot watermark
	recovered   int
	compactions int
	decoded     int // WAL records decoded, at open and from sibling tails
}

type fileStamp struct {
	size  int64
	mtime int64
}

// walTail is how far a sibling's WAL has been read. The file stays
// open while its position is kept, so its inode cannot be reused by a
// later file: os.SameFile against the path then tells a WAL the
// sibling appended to from one it replaced at compaction.
type walTail struct {
	f   *os.File
	id  os.FileInfo
	off int64
}

type walRecord struct {
	Seq uint64 `json:"seq"`
	Job Job    `json:"job"`
}

type snapshotFile struct {
	Format  string `json:"format"`
	Node    string `json:"node"`
	LastSeq uint64 `json:"last_seq"`
	Jobs    []Job  `json:"jobs"`
}

// OpenDisk opens (creating if needed) the durable store rooted at dir
// for the given node id. Two live processes must not share a node id
// in one directory; they may — and in fleet mode do — share the
// directory under distinct ids.
func OpenDisk(dir, node string) (*Disk, error) {
	if node == "" {
		return nil, fmt.Errorf("jobstore: empty node id")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: create dir: %w", err)
	}
	if err := checkManifest(dir); err != nil {
		return nil, err
	}
	d := &Disk{
		dir:         dir,
		node:        node,
		stem:        nodeStem(node),
		t:           newTable(),
		stamps:      make(map[string]fileStamp),
		tails:       make(map[string]*walTail),
		siblingSeqs: make(map[string]uint64),
	}
	// Replay own state first (snapshot watermark, then WAL tail), then
	// merge in whatever siblings have written.
	ownSnap := filepath.Join(dir, snapPrefix+d.stem+snapSuffix)
	ownWAL := filepath.Join(dir, walPrefix+d.stem+walSuffix)
	watermark, err := d.loadSnapshot(ownSnap)
	if err != nil {
		return nil, err
	}
	if watermark > d.seq {
		d.seq = watermark
	}
	maxSeq, err := d.loadWAL(ownWAL, watermark)
	if err != nil {
		return nil, err
	}
	if maxSeq > d.seq {
		d.seq = maxSeq
	}
	if err := d.refreshLocked(); err != nil {
		return nil, err
	}
	for _, j := range d.t.jobs {
		if !j.Terminal() {
			d.recovered++
		}
	}
	// The WAL was just folded into memory; start a fresh log at the
	// current watermark rather than re-appending behind old records.
	if err := d.compactLocked(); err != nil {
		d.closeTailsLocked()
		return nil, err
	}
	return d, nil
}

func checkManifest(dir string) error {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err == nil && strings.TrimSpace(string(data)) == diskFormat {
		return nil
	}
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobstore: read manifest: %w", err)
	}
	// Unknown or missing format: drop any stale store files and stamp
	// the directory with the current format.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("jobstore: scan dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, walPrefix) || strings.HasPrefix(name, snapPrefix) {
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("jobstore: clear stale store: %w", err)
			}
		}
	}
	return writeFileAtomic(path, []byte(diskFormat+"\n"))
}

// nodeStem turns a node id into a filesystem-safe, collision-resistant
// filename fragment: sanitized name plus an FNV-1a disambiguator.
func nodeStem(node string) string {
	var b strings.Builder
	for _, r := range node {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	h := fnv.New32a()
	h.Write([]byte(node))
	return fmt.Sprintf("%s-%08x", b.String(), h.Sum32())
}

// loadSnapshot absorbs a snapshot file into the table and returns its
// sequence watermark. Missing files are fine (fresh node).
func (d *Disk) loadSnapshot(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("jobstore: read snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil || snap.Format != diskFormat {
		// A torn snapshot cannot happen under rename discipline; treat
		// garbage as absent rather than refusing to start.
		return 0, nil
	}
	for _, j := range snap.Jobs {
		d.t.absorb(j)
	}
	return snap.LastSeq, nil
}

// loadWAL replays this node's WAL at open, skipping records at or
// below the snapshot watermark, and returns the highest sequence seen.
func (d *Disk) loadWAL(path string, watermark uint64) (uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("jobstore: read wal: %w", err)
	}
	defer f.Close()
	maxSeq, _, records := readWAL(d.t, f, watermark)
	d.decoded += records
	return maxSeq, nil
}

// readWAL absorbs into t the records of r above watermark and returns
// the highest sequence among them, the bytes it consumed and how many
// records it decoded. It reads only lines ending in '\n' and stops at
// the first line that does not decode, so it never consumes a torn
// trailing line (a crash mid-append, or a sibling's append still in
// flight): n stops before it, and a later read from n takes the record
// once its line is complete. Reading a WAL in pieces, each from where
// the last one stopped, thus builds the same table as reading it at
// once.
func readWAL(t *table, r io.Reader, watermark uint64) (maxSeq uint64, n int64, records int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(scanTerminatedLines)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 {
			var rec walRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break
			}
			records++
			maxSeq = max(maxSeq, rec.Seq)
			if rec.Seq > watermark {
				t.absorb(rec.Job)
			}
		}
		n += int64(len(line)) + 1
	}
	return maxSeq, n, records
}

// scanTerminatedLines is a bufio.SplitFunc that yields each line
// without its '\n' and leaves an unterminated last line unread.
func scanTerminatedLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// refreshLocked folds in what siblings wrote since the last read: a
// snapshot whose size/mtime stamp moved is read again whole, and each
// WAL only from where the last read of it stopped. Callers hold d.mu.
func (d *Disk) refreshLocked() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("jobstore: scan dir: %w", err)
	}
	ownSnap := snapPrefix + d.stem + snapSuffix
	ownWAL := walPrefix + d.stem + walSuffix
	// Snapshots first so each sibling's watermark is current before its
	// WAL is read.
	var walNames []string
	for _, e := range entries {
		name := e.Name()
		if name == ownSnap || name == ownWAL {
			continue
		}
		switch {
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			path := filepath.Join(d.dir, name)
			stamp, fresh := d.changed(path, e)
			if !fresh {
				continue
			}
			var snap snapshotFile
			data, err := os.ReadFile(path)
			if err != nil {
				continue // sibling may be mid-rename; next refresh catches it
			}
			if json.Unmarshal(data, &snap) != nil || snap.Format != diskFormat {
				continue
			}
			d.stamps[path] = stamp
			for _, j := range snap.Jobs {
				d.t.absorb(j)
			}
			stem := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
			if snap.LastSeq > d.siblingSeqs[stem] {
				d.siblingSeqs[stem] = snap.LastSeq
			}
		case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
			walNames = append(walNames, name)
		}
	}
	for _, name := range walNames {
		stem := strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix)
		d.tailLocked(filepath.Join(d.dir, name), d.siblingSeqs[stem])
	}
	return nil
}

// tailLocked reads what a sibling appended to its WAL since the last
// read. A WAL that was replaced (compaction renames a fresh one into
// place), shrank or vanished is dropped, and a present one is read
// again from its start. Callers hold d.mu.
func (d *Disk) tailLocked(path string, watermark uint64) {
	fi, err := os.Stat(path)
	t := d.tails[path]
	if t != nil && (err != nil || !os.SameFile(t.id, fi) || fi.Size() < t.off) {
		t.f.Close()
		delete(d.tails, path)
		t = nil
	}
	if err != nil || (t != nil && fi.Size() == t.off) {
		return
	}
	if t == nil {
		f, err := os.Open(path)
		if err != nil {
			return // sibling may be mid-rename; next refresh catches it
		}
		id, err := f.Stat()
		if err != nil {
			f.Close()
			return
		}
		t = &walTail{f: f, id: id}
		d.tails[path] = t
	}
	if _, err := t.f.Seek(t.off, io.SeekStart); err != nil {
		return
	}
	_, n, records := readWAL(d.t, t.f, watermark)
	t.off += n
	d.decoded += records
}

// closeTailsLocked releases the sibling WALs held open for tailing.
// Callers hold d.mu.
func (d *Disk) closeTailsLocked() {
	for path, t := range d.tails {
		t.f.Close()
		delete(d.tails, path)
	}
}

// changed stats a sibling snapshot and reports whether it differs
// from the last successfully loaded version; the caller records the
// stamp once the load succeeds.
func (d *Disk) changed(path string, e os.DirEntry) (fileStamp, bool) {
	fi, err := e.Info()
	if err != nil {
		return fileStamp{}, false
	}
	stamp := fileStamp{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
	return stamp, d.stamps[path] != stamp
}

// appendLocked writes one mutated row to the WAL and, once it is
// written, stores it in the table and compacts when the log is due. A
// failed write leaves the table and the sequence number as they were,
// so the caller's error is the whole outcome. It may still have left
// part of a line in the WAL, and replay stops at the first line that
// does not decode, so the next append first rotates to a fresh WAL
// and fails if it cannot. Callers hold d.mu.
func (d *Disk) appendLocked(j Job) error {
	if d.walTorn {
		if err := d.compactLocked(); err != nil {
			return err
		}
	}
	rec := walRecord{Seq: d.seq + 1, Job: j}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encode wal record: %w", err)
	}
	line = append(line, '\n')
	if _, err := d.wal.Write(line); err != nil {
		d.walTorn = true
		return fmt.Errorf("jobstore: append wal: %w", err)
	}
	d.seq++
	d.t.set(j)
	d.walRecords++
	if d.walRecords >= max(compactEvery, len(d.t.jobs)) {
		// The mutation is in the WAL and in the table, so a failed
		// compaction does not fail it: the log stays due, the next
		// append tries again, and Close reports a failure that lasts.
		_ = d.compactLocked()
	}
	return nil
}

// compactLocked folds the current table into this node's snapshot and
// starts a fresh, empty WAL. Snapshot first (fsync + atomic rename),
// WAL second: a crash between the two leaves a stale WAL whose records
// are all at or below the snapshot watermark, which replay skips. The
// fresh WAL is renamed over the old one instead of truncating it, so
// a sibling tailing the old file sees a different file and reads the
// new one from its start. Callers hold d.mu.
func (d *Disk) compactLocked() error {
	// Plain Marshal, not MarshalIndent: indenting would rewrite the
	// embedded canonical spec bytes, and those must survive verbatim.
	snap := snapshotFile{Format: diskFormat, Node: d.node, LastSeq: d.seq, Jobs: d.t.list()}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("jobstore: encode snapshot: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(d.dir, snapPrefix+d.stem+snapSuffix), data); err != nil {
		return err
	}
	tmp := filepath.Join(d.dir, walTempName+d.stem)
	wal, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: rotate wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, walPrefix+d.stem+walSuffix)); err != nil {
		wal.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobstore: rotate wal: %w", err)
	}
	if d.wal != nil {
		d.wal.Close() // every record it holds is in the snapshot now
	}
	d.wal = wal
	d.walRecords = 0
	d.walTorn = false
	d.compactions++
	return nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("jobstore: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: rename: %w", err)
	}
	return nil
}

// RecoveredJobs reports how many non-terminal jobs were found in the
// directory when this store opened — the number the serve layer logs
// as its recovery line.
func (d *Disk) RecoveredJobs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered
}

// Compactions reports how many snapshot compactions this store has
// performed (including the one at open and the one at close).
func (d *Disk) Compactions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactions
}

// Put implements Store.
func (d *Disk) Put(j Job) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.refreshLocked(); err != nil {
		return err
	}
	row, changed := d.t.put(j, time.Now()) //pynamic:nondeterministic UpdatedAt lease clock: conflict resolution, not canonical bytes
	if !changed {
		return nil
	}
	return d.appendLocked(row)
}

// Get implements Store.
func (d *Disk) Get(hash string) (Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		_ = d.refreshLocked()
	}
	j, ok := d.t.jobs[hash]
	return j, ok
}

// List implements Store.
func (d *Disk) List() []Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		_ = d.refreshLocked()
	}
	return d.t.list()
}

// Claim implements Store.
func (d *Disk) Claim(node, hash string, now time.Time, ttl time.Duration) (Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return Job{}, ErrClosed
	}
	if err := d.refreshLocked(); err != nil {
		return Job{}, err
	}
	j, err := d.t.claim(node, hash, now, ttl)
	if err != nil {
		return Job{}, err
	}
	if err := d.appendLocked(j); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Heartbeat implements Store.
func (d *Disk) Heartbeat(hash, node string, now time.Time, ttl time.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	j, err := d.t.heartbeat(hash, node, now, ttl)
	if err != nil {
		return err
	}
	return d.appendLocked(j)
}

// Complete implements Store.
func (d *Disk) Complete(hash, node, status, errMsg string, now time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.refreshLocked(); err != nil {
		return err
	}
	j, changed, err := d.t.complete(hash, node, status, errMsg, now)
	if err != nil || !changed {
		return err
	}
	return d.appendLocked(j)
}

// Close implements Store: compact the WAL into a final snapshot and
// close the log, so a clean shutdown leaves nothing to replay.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.closeTailsLocked()
	err := d.compactLocked()
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
