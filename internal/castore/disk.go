package castore

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// formatVersion is the on-disk format generation. Every record header
// starts with it, and the root MANIFEST records it; bumping it
// invalidates every persisted entry at Open time, which is the
// clean-slate path for incompatible layout changes. Schema-level
// invalidation (a cache whose payload semantics changed) is cheaper:
// bump that cache's schema label and its old entries simply stop being
// addressed.
const formatVersion = "castore/2"

// manifestName is the version document at the store root.
const manifestName = "MANIFEST"

// manifest is the JSON body of the MANIFEST file.
type manifest struct {
	Format string `json:"format"`
}

// Record payload encodings named in the header line.
const (
	encRaw  = "raw"
	encGzip = "gzip"
)

const (
	// packDir is the directory under the root that holds the packs,
	// each named <pid>-<random>.pack after the process that created it.
	packDir    = "pack"
	packSuffix = ".pack"

	// maxPayload bounds a record's stored payload. A header that
	// names a longer one cannot have been written by Put.
	maxPayload = 1 << 30

	// maxHeaderLen bounds a header line, newline excluded: format,
	// schema, key, encoding, payload length (at most 10 digits) and
	// CRC (8 hex digits), single-space separated. A pack whose next
	// maxHeaderLen+1 bytes hold no newline cannot be framed.
	maxHeaderLen = len(formatVersion) + 1 + maxNameLen + 1 + maxNameLen + 1 +
		len(encGzip) + 1 + 10 + 1 + 8
)

// Options configures a Disk store.
type Options struct {
	// Compress gzips payloads on write. Reads accept both encodings
	// regardless (each record header names its own), so the setting
	// can change between runs without invalidating anything.
	Compress bool
}

// Disk is the persistent backend: a log of records in append-only
// packs under root/pack. A record is one header line,
// "castore/2 <schema> <key> <raw|gzip> <payload length> <CRC-32>",
// followed by the payload, and each Put appends one with a single
// write. A writer holds an exclusive lock on the one pack it appends
// to, so two writers never share a pack and a crash can tear only the
// record being appended. A writer's first Put takes over a pack that no
// live writer holds and whose bytes are all whole records, and creates
// one only when there is none, so a directory holds at most as many
// packs as writers were ever open at once, however many runs used it.
// Open indexes every complete record; a Get miss then reads only what
// other writers appended since the last read, so processes sharing a
// directory see each other's entries. Only this Disk's own pack stays
// open; every other pack is opened for a read and closed after it. A
// later record for a key replaces the indexed one, a damaged record
// never replaces a sound one, and anything that fails validation is
// counted as a corruption and reported as a miss. Nothing is evicted:
// a pack grows until its directory is removed.
type Disk struct {
	root string
	opts Options

	flight *flight
	ctr    counters

	// mu guards the index, the writer and every pack's f. Get holds
	// it shared while it reads through the writer's open pack.
	mu    sync.RWMutex
	index map[string]loc
	w     *pack // the pack Put appends to; nil until the first Put and after a failed append
	wOff  int64 // w's length: its bytes when this Disk took it, plus every byte Put wrote

	// tailMu serializes reading other writers' packs and choosing the
	// pack to write, and guards tails, each pack's read position. It is
	// taken before mu, never while mu is held.
	tailMu sync.Mutex
	tails  map[string]*packTail
}

// pack is one pack file. f is open only while the pack is this Disk's
// writer.
type pack struct {
	path string
	f    *os.File
}

// loc is where an indexed record's payload sits, with the length,
// CRC-32 and encoding its header named. bad marks a record whose
// payload failed its CRC when it was indexed; the Get that reaches it
// counts the corruption.
type loc struct {
	pack *pack
	off  int64
	n    int
	crc  uint32
	gzip bool
	bad  bool
}

// packTail is how far a pack has been read: off ends its last whole
// record and size is the file size at that read. dead marks a pack
// that is never read again, because its next bytes cannot be framed or
// because this Disk writes or wrote it.
type packTail struct {
	pack *pack
	off  int64
	size int64
	dead bool
}

// Open opens (creating if needed) a disk store rooted at dir and
// indexes every pack in it. If the directory holds entries from
// another on-disk format, they are discarded wholesale and the
// manifest rewritten; files and dot-prefixed directories that castore
// does not own are left alone. Open creates no pack: the first Put
// does.
func Open(dir string, opts Options) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: create root: %w", err)
	}
	s := &Disk{
		root:   dir,
		opts:   opts,
		flight: newFlight(),
		index:  make(map[string]loc),
		tails:  make(map[string]*packTail),
	}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	s.refresh()
	return s, nil
}

// checkManifest enforces the format generation: absent → write it,
// matching → proceed, mismatched → drop castore's directories and
// rewrite. castore's directories are the pack directory and the
// schema directories of castore/1, all named by validName; a
// dot-prefixed sibling such as the job store's .jobstore fails
// validName and survives.
func (s *Disk) checkManifest() error {
	path := filepath.Join(s.root, manifestName)
	data, err := os.ReadFile(path)
	if err == nil {
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr == nil && m.Format == formatVersion {
			return nil
		}
		// Unreadable or foreign-format manifest: every entry under
		// this root is suspect. Start over.
		entries, rerr := os.ReadDir(s.root)
		if rerr != nil {
			return fmt.Errorf("castore: scan root: %w", rerr)
		}
		for _, e := range entries {
			if e.IsDir() && validName(e.Name()) {
				if rerr := os.RemoveAll(filepath.Join(s.root, e.Name())); rerr != nil {
					return fmt.Errorf("castore: invalidate old format: %w", rerr)
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("castore: read manifest: %w", err)
	}
	doc, err := json.Marshal(manifest{Format: formatVersion})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("castore: write manifest: %w", err)
	}
	return nil
}

// appendHeader appends a record's header line, newline included.
func appendHeader(dst []byte, schema, key, enc string, n int, crc uint32) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, formatVersion...)
	for _, f := range [...]string{schema, key, enc} {
		dst = append(dst, ' ')
		dst = append(dst, f...)
	}
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[crc>>shift&0xf])
	}
	return append(dst, '\n')
}

// header is a parsed record header.
type header struct {
	schema, key string
	gzip        bool
	n           int
	crc         uint32
}

// parseHeader parses a header line without its newline. It accepts
// only the exact bytes appendHeader writes for the fields it reads.
func parseHeader(line []byte) (header, bool) {
	f := strings.Split(string(line), " ")
	if len(f) != 6 || f[0] != formatVersion || !validName(f[1]) || !validName(f[2]) ||
		(f[3] != encRaw && f[3] != encGzip) {
		return header{}, false
	}
	n, err := strconv.Atoi(f[4])
	if err != nil || n < 0 || n > maxPayload {
		return header{}, false
	}
	crc, err := strconv.ParseUint(f[5], 16, 32)
	if err != nil {
		return header{}, false
	}
	h := header{schema: f[1], key: f[2], gzip: f[3] == encGzip, n: n, crc: uint32(crc)}
	var buf [maxHeaderLen + 1]byte
	if want := appendHeader(buf[:0], h.schema, h.key, f[3], n, h.crc); !bytes.Equal(want[:len(want)-1], line) {
		return header{}, false
	}
	return h, true
}

// scanPack indexes the records in r, the bytes of p from off to end,
// into found. It stops before a record that is not whole yet, which a
// later read takes once its writer has finished it, and before bytes
// that cannot be framed (reported as dead). A record whose payload
// fails its CRC is indexed as bad unless its key already is.
func scanPack(p *pack, r *bufio.Reader, off, end int64, found map[string]loc) (next int64, dead bool) {
	for off < end {
		peek, _ := r.Peek(int(min(int64(maxHeaderLen+1), end-off)))
		i := bytes.IndexByte(peek, '\n')
		if i < 0 {
			return off, len(peek) > maxHeaderLen
		}
		h, ok := parseHeader(peek[:i])
		if !ok {
			return off, true
		}
		payload := off + int64(i) + 1
		if payload+int64(h.n) > end {
			return off, false
		}
		if _, err := r.Discard(i + 1); err != nil {
			return off, false
		}
		var crc uint32
		for left := h.n; left > 0; {
			chunk, err := r.Peek(min(left, r.Size()))
			crc = crc32.Update(crc, crc32.IEEETable, chunk)
			r.Discard(len(chunk))
			left -= len(chunk)
			if err != nil && left > 0 {
				return off, false
			}
		}
		id := entryKey(h.schema, h.key)
		l := loc{pack: p, off: payload, n: h.n, crc: h.crc, gzip: h.gzip, bad: crc != h.crc}
		if _, ok := found[id]; !l.bad || !ok {
			found[id] = l
		}
		off = payload + int64(h.n)
	}
	return off, false
}

// refresh indexes what other writers appended since the last read:
// every new pack from its start, every grown one from where the last
// read stopped.
func (s *Disk) refresh() {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	s.refreshLocked()
}

// refreshLocked is refresh for callers that hold s.tailMu.
func (s *Disk) refreshLocked() {
	dir := filepath.Join(s.root, packDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	found := make(map[string]loc)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, packSuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		t := s.tails[path]
		if t == nil {
			t = &packTail{pack: &pack{path: path}}
			s.tails[path] = t
		}
		if t.dead {
			continue
		}
		info, err := e.Info()
		if err != nil || info.Size() <= t.off || info.Size() == t.size {
			continue
		}
		s.readTail(t, info.Size(), found)
	}
	s.merge(found)
}

// readTail indexes t's pack from t.off to size into found. A pack
// whose next bytes cannot be framed counts one corruption. Callers
// hold s.tailMu.
func (s *Disk) readTail(t *packTail, size int64, found map[string]loc) {
	f, err := os.Open(t.pack.path)
	if err != nil {
		return
	}
	defer f.Close()
	r := bufio.NewReaderSize(io.NewSectionReader(f, t.off, size-t.off), 64<<10)
	t.off, t.dead = scanPack(t.pack, r, t.off, size, found)
	t.size = size
	if t.dead {
		s.ctr.corruptions.Add(1)
	}
}

// merge adds found to the index. A bad record does not replace one the
// index already holds.
func (s *Disk) merge(found map[string]loc) {
	if len(found) == 0 {
		return
	}
	s.mu.Lock()
	for id, l := range found {
		if _, ok := s.index[id]; !l.bad || !ok {
			s.index[id] = l
		}
	}
	s.mu.Unlock()
}

// readResult is how a read of one indexed record went.
type readResult int

const (
	readHit readResult = iota
	readMiss
	readCorrupt
)

// Get returns the payload for (schema, key). A key that is not indexed
// first reads what other writers appended, then is looked up again. A
// record whose bytes fail the CRC or do not decode is counted as a
// corruption, dropped from the index so the next Put replaces it, and
// reported as a miss.
func (s *Disk) Get(schema, key string) ([]byte, bool) {
	if err := checkNames(schema, key); err != nil {
		s.ctr.misses.Add(1)
		return nil, false
	}
	id := entryKey(schema, key)
	data, res := s.read(id)
	if res == readMiss {
		s.refresh()
		data, res = s.read(id)
	}
	switch res {
	case readHit:
		s.ctr.hits.Add(1)
		return data, true
	case readCorrupt:
		s.ctr.corruptions.Add(1)
	}
	s.ctr.misses.Add(1)
	return nil, false
}

// read returns the payload of id's indexed record. A record that
// cannot be read (its pack vanished) or fails validation is dropped
// from the index.
func (s *Disk) read(id string) ([]byte, readResult) {
	s.mu.RLock()
	l, ok := s.index[id]
	if !ok {
		s.mu.RUnlock()
		return nil, readMiss
	}
	if l.bad {
		s.mu.RUnlock()
		s.drop(id, l)
		return nil, readCorrupt
	}
	raw := make([]byte, l.n)
	var err error
	if f := l.pack.f; f != nil {
		_, err = f.ReadAt(raw, l.off)
		s.mu.RUnlock()
	} else {
		s.mu.RUnlock()
		err = readAt(l.pack.path, raw, l.off)
	}
	if err != nil {
		s.drop(id, l)
		return nil, readMiss
	}
	if crc32.ChecksumIEEE(raw) != l.crc {
		s.drop(id, l)
		return nil, readCorrupt
	}
	if !l.gzip {
		return raw, readHit
	}
	data, err := gunzip(raw)
	if err != nil {
		s.drop(id, l)
		return nil, readCorrupt
	}
	return data, readHit
}

// readAt fills buf from the file at path, starting at off.
func readAt(path string, buf []byte, off int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_, err = f.ReadAt(buf, off)
	f.Close()
	return err
}

func gunzip(payload []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr) // a bad gzip checksum fails the read at EOF
}

// drop removes id from the index if it still names l.
func (s *Disk) drop(id string, l loc) {
	s.mu.Lock()
	if s.index[id] == l {
		delete(s.index, id)
	}
	s.mu.Unlock()
}

// gzWriters recycles gzip writers across Puts.
var gzWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// encode builds the record for (schema, key, data) and returns it with
// its header length and payload CRC.
func (s *Disk) encode(schema, key string, data []byte) (rec []byte, hdr int, crc uint32, err error) {
	payload, enc := data, encRaw
	if s.opts.Compress {
		var buf bytes.Buffer
		zw := gzWriters.Get().(*gzip.Writer)
		zw.Reset(&buf)
		_, err = zw.Write(data)
		if err == nil {
			err = zw.Close()
		}
		gzWriters.Put(zw)
		if err != nil {
			return nil, 0, 0, err
		}
		payload, enc = buf.Bytes(), encGzip
	}
	if len(payload) > maxPayload {
		return nil, 0, 0, fmt.Errorf("castore: payload of %d bytes exceeds %d", len(payload), maxPayload)
	}
	crc = crc32.ChecksumIEEE(payload)
	rec = appendHeader(make([]byte, 0, maxHeaderLen+1+len(payload)), schema, key, enc, len(payload), crc)
	hdr = len(rec)
	return append(rec, payload...), hdr, crc, nil
}

// Put appends data's record for (schema, key) to this Disk's pack in
// one write and indexes it. A failed write may have left part of the
// record in the pack, so the writer moves to another pack at the next
// Put rather than append behind those bytes.
func (s *Disk) Put(schema, key string, data []byte) error {
	if err := checkNames(schema, key); err != nil {
		return err
	}
	rec, hdr, crc, err := s.encode(schema, key, data)
	if err != nil {
		return err
	}

	s.mu.Lock()
	for s.w == nil {
		s.mu.Unlock()
		if err := s.openWriter(); err != nil {
			return err
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if _, err := s.w.f.Write(rec); err != nil {
		s.w.f.Close()
		s.w.f, s.w = nil, nil
		return fmt.Errorf("castore: append record: %w", err)
	}
	s.index[entryKey(schema, key)] = loc{
		pack: s.w, off: s.wOff + int64(hdr), n: len(rec) - hdr, crc: crc, gzip: s.opts.Compress,
	}
	s.wOff += int64(len(rec))
	s.ctr.puts.Add(1)
	return nil
}

// openWriter gives this Disk a pack to append to. It takes over a pack
// whose lock no live writer holds and whose bytes are all whole
// records, and creates and locks a fresh one only when there is none.
// It never takes back a pack this Disk wrote: that pack's last append
// may have failed partway.
func (s *Disk) openWriter() error {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	s.mu.RLock()
	w := s.w
	s.mu.RUnlock()
	if w != nil {
		return nil
	}
	s.refreshLocked()
	for _, t := range s.tails {
		if !t.dead && t.off == t.size {
			if f := s.takeOver(t); f != nil {
				s.setWriter(t, f)
				return nil
			}
		}
	}
	dir := filepath.Join(s.root, packDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("castore: create pack dir: %w", err)
	}
	for {
		f, err := os.CreateTemp(dir, strconv.Itoa(os.Getpid())+"-*"+packSuffix)
		if err != nil {
			return fmt.Errorf("castore: create pack: %w", err)
		}
		t := &packTail{pack: &pack{path: f.Name()}}
		s.tails[f.Name()] = t
		if lockPack(f) || !packLocks {
			s.setWriter(t, f)
			return nil
		}
		// Another writer took the new pack before it was locked, so
		// it is read as that writer's.
		f.Close()
	}
}

// takeOver opens t's pack for appending and returns it locked, if no
// live writer holds its lock and its bytes, counting any its last
// writer appended since the last read, are all whole records. Callers
// hold s.tailMu.
func (s *Disk) takeOver(t *packTail) *os.File {
	f, err := os.OpenFile(t.pack.path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil
	}
	if lockPack(f) {
		if info, err := f.Stat(); err == nil {
			if size := info.Size(); size > t.off && size != t.size {
				found := make(map[string]loc)
				s.readTail(t, size, found)
				s.merge(found)
			}
			if !t.dead && t.off == info.Size() {
				return f
			}
		}
	}
	f.Close()
	return nil
}

// setWriter makes t's pack, open as f, the one Put appends to, and
// stops reading it as another writer's. Callers hold s.tailMu.
func (s *Disk) setWriter(t *packTail, f *os.File) {
	t.dead = true
	s.mu.Lock()
	t.pack.f = f
	s.w, s.wOff = t.pack, t.off
	s.mu.Unlock()
}

// Do returns the payload for (schema, key), filling on a miss under a
// per-key lock so concurrent callers — within this process — fill
// once. (Cross-process duplicate fills are harmless: both append the
// same bytes, and either record serves the key.)
func (s *Disk) Do(schema, key string, fill func() ([]byte, error)) ([]byte, bool, error) {
	if err := checkNames(schema, key); err != nil {
		return nil, false, err
	}
	unlock := s.flight.lock(entryKey(schema, key))
	defer unlock()
	if data, ok := s.Get(schema, key); ok {
		return data, true, nil
	}
	data, err := fill()
	if err != nil {
		return nil, false, err
	}
	if err := s.Put(schema, key, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Disk) Stats() Stats { return s.ctr.snapshot() }
