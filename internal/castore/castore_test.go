package castore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

const testSchema = "test-schema-v1"

// stores builds one instance of every backend against a fresh root,
// so each property below is checked across the whole matrix.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	zdisk, err := Open(t.TempDir(), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":       NewMem(),
		"disk":      disk,
		"disk-gzip": zdisk,
	}
}

// TestRoundTrip: what goes in comes out byte-identical, across
// backends and compression settings, including payloads that look like
// the real ones (JSON workload manifests and spec results) plus
// empty and binary edge cases.
func TestRoundTrip(t *testing.T) {
	payloads := map[string][]byte{
		"manifest":   []byte(`{"format_version":1,"config":{"scale":40,"seed":7},"total_funcs":1234}`),
		"specresult": []byte("{\n  \"kind\": \"job\",\n  \"metrics\": {\n    \"startup_sec\": 1.25\n  }\n}\n"),
		"empty":      {},
		"binary":     {0, 1, 2, 0xff, 0xfe, '\n', 0, 'x'},
	}
	for name, s := range stores(t) {
		for pname, want := range payloads {
			key := "k-" + pname
			if _, ok := s.Get(testSchema, key); ok {
				t.Fatalf("%s: hit before put", name)
			}
			if err := s.Put(testSchema, key, want); err != nil {
				t.Fatalf("%s/%s: put: %v", name, pname, err)
			}
			got, ok := s.Get(testSchema, key)
			if !ok {
				t.Fatalf("%s/%s: miss after put", name, pname)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: round trip mutated payload:\n got %q\nwant %q",
					name, pname, got, want)
			}
		}
		st := s.Stats()
		if st.Puts != int64(len(payloads)) || st.Hits != int64(len(payloads)) ||
			st.Misses != int64(len(payloads)) || st.Corruptions != 0 {
			t.Fatalf("%s: stats %+v, want %d puts/hits/misses and 0 corruptions",
				name, st, len(payloads))
		}
	}
}

// TestDiskPersistsAcrossOpens: a second store on the same root serves
// entries the first one wrote — the cross-process contract, with the
// write and the read on instances that share no memory.
func TestDiskPersistsAcrossOpens(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		first, err := Open(dir, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		want := []byte(`{"payload":"survives restart"}`)
		if err := first.Put(testSchema, "persist", want); err != nil {
			t.Fatal(err)
		}
		second, err := Open(dir, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := second.Get(testSchema, "persist")
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("compress=%v: reopened store returned %q/%v, want %q",
				compress, got, ok, want)
		}
		// A store that only reads creates no pack.
		if _, ok := second.Get(testSchema, "absent"); ok {
			t.Fatal("hit for a key never written")
		}
		if packs := packFiles(t, dir); len(packs) != 1 {
			t.Fatalf("compress=%v: packs %v, want only the writer's", compress, packs)
		}
	}
}

// TestDiskReadsBothEncodings: the per-entry header, not the store
// option, decides decoding — a store opened with compression off reads
// entries a compressed store wrote, and vice versa.
func TestDiskReadsBothEncodings(t *testing.T) {
	dir := t.TempDir()
	plain, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zipped, err := Open(dir, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(strings.Repeat("compressible ", 100))
	if err := plain.Put(testSchema, "from-plain", want); err != nil {
		t.Fatal(err)
	}
	if err := zipped.Put(testSchema, "from-zip", want); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"from-plain", "from-zip"} {
		for name, s := range map[string]*Disk{"plain": plain, "zipped": zipped} {
			got, ok := s.Get(testSchema, key)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s reading %s: ok=%v", name, key, ok)
			}
		}
	}
}

// TestDoFillsOnce: N concurrent Do calls for one key run the fill
// exactly once; everyone gets the same bytes; exactly one caller
// reports a store miss.
func TestDoFillsOnce(t *testing.T) {
	for name, s := range stores(t) {
		var fills, fromStore atomic.Int64
		want := []byte("expensive result")
		const n = 16
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, hit, err := s.Do(testSchema, "hot-key", func() ([]byte, error) {
					fills.Add(1)
					return want, nil
				})
				if err != nil {
					t.Errorf("%s: do: %v", name, err)
					return
				}
				if hit {
					fromStore.Add(1)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: do returned %q", name, got)
				}
			}()
		}
		wg.Wait()
		if fills.Load() != 1 {
			t.Fatalf("%s: fill ran %d times, want 1", name, fills.Load())
		}
		if fromStore.Load() != n-1 {
			t.Fatalf("%s: %d store hits, want %d", name, fromStore.Load(), n-1)
		}
	}
}

// TestDoFillErrorNotCached: a failed fill stores nothing, so the next
// Do retries and can succeed.
func TestDoFillErrorNotCached(t *testing.T) {
	for name, s := range stores(t) {
		fail := fmt.Errorf("boom")
		if _, _, err := s.Do(testSchema, "flaky", func() ([]byte, error) {
			return nil, fail
		}); err != fail {
			t.Fatalf("%s: do error %v, want %v", name, err, fail)
		}
		got, hit, err := s.Do(testSchema, "flaky", func() ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || hit || string(got) != "recovered" {
			t.Fatalf("%s: retry after failed fill: %q hit=%v err=%v", name, got, hit, err)
		}
	}
}

// packFiles lists the pack files under dir's pack directory.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, packDir))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, filepath.Join(dir, packDir, e.Name()))
	}
	return out
}

// writePack writes data as a pack named name in dir, as another
// writer would have left it.
func writePack(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, packDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, packDir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// record frames payload as a raw record for (schema, key), as Put
// writes it.
func record(schema, key string, payload []byte) []byte {
	rec := appendHeader(nil, schema, key, encRaw, len(payload), crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// mustOpen opens a store at dir and fails the test on error.
func mustOpen(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCorruptEntriesAreMissesNotErrors: every flavor of damage to a
// pack's bytes — a flipped payload byte, a wrong CRC, an unframeable
// header, a gzip payload that does not decode — reads as a miss and
// bumps the corruption counter by one, for the writer that still
// indexes the record and for a reader that indexes the damaged pack;
// a subsequent Put repairs the key for both and for every later open.
// Once repaired, a damaged record is not counted again, so a reopen
// counts no corruption; only a pack that cannot be framed is counted
// by every store that reads it.
func TestCorruptEntriesAreMissesNotErrors(t *testing.T) {
	want := []byte("good payload")
	cases := []struct {
		name string
		// damage rewrites a pack holding one raw record for the key;
		// hdr is the length of its header line.
		damage func(pack []byte, hdr int) []byte
		// writerSees: the damage is to the payload, so the writer's
		// own index, which holds the header's CRC, detects it too.
		writerSees bool
		// unframeable: the damage leaves no record to read, so the
		// pack itself is the corruption, counted by every open.
		unframeable bool
	}{
		{"payload-bit-flip", func(p []byte, hdr int) []byte { p[len(p)-1] ^= 0x01; return p }, true, false},
		{"crc-digit", func(p []byte, hdr int) []byte { p[hdr-2] ^= 0x01; return p }, false, false},
		{"bad-version", func(p []byte, hdr int) []byte { p[len("castore/")] = '9'; return p }, false, true},
		{"bad-encoding", func(p []byte, hdr int) []byte {
			return bytes.Replace(p, []byte(" raw "), []byte(" rar "), 1)
		}, false, true},
		{"no-header", func(p []byte, hdr int) []byte { return []byte("not a castore record\n") }, false, true},
		{"gzip-undecodable", func(p []byte, hdr int) []byte {
			// The "gzip" header is a byte longer than the "raw" one, so
			// a payload a byte shorter keeps the pack's length, which the
			// writer's next append relies on.
			body := want[:len(want)-1]
			rec := appendHeader(nil, testSchema, "victim", encGzip, len(body), crc32.ChecksumIEEE(body))
			return append(rec, body...)
		}, true, false},
	}
	for _, c := range cases {
		dir := t.TempDir()
		w := mustOpen(t, dir, Options{})
		if err := w.Put(testSchema, "victim", want); err != nil {
			t.Fatal(err)
		}
		pack, err := os.ReadFile(w.w.path)
		if err != nil {
			t.Fatal(err)
		}
		hdr := bytes.IndexByte(pack, '\n') + 1
		if err := os.WriteFile(w.w.path, c.damage(pack, hdr), 0o644); err != nil {
			t.Fatal(err)
		}
		// The reader checks and repairs first: a repair the writer made
		// first would reach the reader as a sibling's record.
		readers := []*Disk{mustOpen(t, dir, Options{})}
		if c.writerSees {
			readers = append(readers, w)
		}
		for who, s := range readers {
			if got, ok := s.Get(testSchema, "victim"); ok {
				t.Fatalf("%s/reader %d: corrupt record served as a hit: %q", c.name, who, got)
			}
			if st := s.Stats(); st.Corruptions != 1 {
				t.Fatalf("%s/reader %d: corruptions = %d, want 1", c.name, who, st.Corruptions)
			}
			if err := s.Put(testSchema, "victim", want); err != nil {
				t.Fatalf("%s/reader %d: re-put after corruption: %v", c.name, who, err)
			}
			if got, ok := s.Get(testSchema, "victim"); !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s/reader %d: repaired entry: %q/%v", c.name, who, got, ok)
			}
		}
		reopened := mustOpen(t, dir, Options{})
		if got, ok := reopened.Get(testSchema, "victim"); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: repaired entry after reopen: %q/%v", c.name, got, ok)
		}
		wantCorrupt := int64(0)
		if c.unframeable {
			wantCorrupt = 1
		}
		if st := reopened.Stats(); st.Corruptions != wantCorrupt {
			t.Fatalf("%s: reopen after the repair counts %d corruptions, want %d", c.name, st.Corruptions, wantCorrupt)
		}
	}
}

// TestCrashAtomicity: a writer that dies mid-Put leaves at most part of
// one record at the end of its pack. Those bytes are never served as
// an entry, are not a corruption, and neither hide the records before
// them nor stop a later Put of the same key or a reopen.
func TestCrashAtomicity(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	before := []byte("written before the crash")
	if err := s.Put(testSchema, "before", before); err != nil {
		t.Fatal(err)
	}
	want := []byte("the real payload")
	rec := record(testSchema, "crashed", want)
	f, err := os.OpenFile(s.w.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, Options{})
	if _, ok := r.Get(testSchema, "crashed"); ok {
		t.Fatal("partial record served as an entry")
	}
	if got, ok := r.Get(testSchema, "before"); !ok || !bytes.Equal(got, before) {
		t.Fatalf("record before the torn one: %q/%v", got, ok)
	}
	if err := r.Put(testSchema, "crashed", want); err != nil {
		t.Fatalf("put after the crash: %v", err)
	}
	if got, ok := r.Get(testSchema, "crashed"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("entry after the crash: %q/%v", got, ok)
	}
	if st := r.Stats(); st.Corruptions != 0 {
		t.Fatalf("torn tail counted as corruption: %+v", st)
	}

	r2 := mustOpen(t, dir, Options{})
	for key, want := range map[string][]byte{"before": before, "crashed": want} {
		if got, ok := r2.Get(testSchema, key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened %s: %q/%v", key, got, ok)
		}
	}
	if st := r2.Stats(); st.Corruptions != 0 {
		t.Fatalf("reopen counted the torn tail as corruption: %+v", st)
	}
}

// TestTornPackTail: a pack cut at any byte inside its last record
// reopens without error, serves every earlier record, misses the cut
// one, and takes a later Put from a new writer.
func TestTornPackTail(t *testing.T) {
	src := mustOpen(t, t.TempDir(), Options{})
	entries := map[string][]byte{"a": []byte("first"), "b": []byte("second"), "c": []byte("the last record")}
	for _, key := range []string{"a", "b", "c"} {
		if err := src.Put(testSchema, key, entries[key]); err != nil {
			t.Fatal(err)
		}
	}
	pack, err := os.ReadFile(src.w.path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndex(pack, []byte(formatVersion+" "))
	for cut := last; cut < len(pack); cut++ {
		dir := t.TempDir()
		writePack(t, dir, "torn.pack", pack[:cut])
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		for _, key := range []string{"a", "b"} {
			if got, ok := s.Get(testSchema, key); !ok || !bytes.Equal(got, entries[key]) {
				t.Fatalf("cut %d: %s = %q/%v", cut, key, got, ok)
			}
		}
		if got, ok := s.Get(testSchema, "c"); ok {
			t.Fatalf("cut %d: torn record served: %q", cut, got)
		}
		if err := s.Put(testSchema, "d", []byte("after the tear")); err != nil {
			t.Fatalf("cut %d: put: %v", cut, err)
		}
		if got, ok := mustOpen(t, dir, Options{}).Get(testSchema, "d"); !ok || string(got) != "after the tear" {
			t.Fatalf("cut %d: reopened d = %q/%v", cut, got, ok)
		}
	}
}

// TestFailedAppendMovesToFreshPack: when an append fails, Put reports
// it and the writer's next Put goes to a fresh pack, which a sibling
// reader and a reopen both read.
func TestFailedAppendMovesToFreshPack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(testSchema, "first", []byte("one")); err != nil {
		t.Fatal(err)
	}
	sibling := mustOpen(t, dir, Options{})
	first := s.w.path
	s.w.f.Close()
	if err := s.Put(testSchema, "lost", []byte("two")); err == nil {
		t.Fatal("Put through a closed pack succeeded")
	}
	if err := s.Put(testSchema, "second", []byte("three")); err != nil {
		t.Fatalf("Put after a failed append: %v", err)
	}
	if s.w.path == first {
		t.Fatal("writer kept appending to the pack whose append failed")
	}
	want := map[string]string{"first": "one", "second": "three"}
	for who, r := range map[string]*Disk{"writer": s, "sibling": sibling, "reopened": mustOpen(t, dir, Options{})} {
		for key, payload := range want {
			if got, ok := r.Get(testSchema, key); !ok || string(got) != payload {
				t.Fatalf("%s: %s = %q/%v, want %q", who, key, got, ok, payload)
			}
		}
		if _, ok := r.Get(testSchema, "lost"); ok {
			t.Fatalf("%s: the failed Put's entry is readable", who)
		}
		if st := r.Stats(); st.Corruptions != 0 {
			t.Fatalf("%s: corruptions %d", who, st.Corruptions)
		}
	}
}

// release closes s's pack as its process's exit would, which frees the
// pack's lock.
func release(s *Disk) {
	s.mu.Lock()
	s.w.f.Close()
	s.w.f, s.w = nil, nil
	s.mu.Unlock()
}

// TestWritersTakeOverIdlePacks: a directory that many writers used one
// after another holds one pack, because each takes over the pack the
// last one left, even when its first Puts come from several goroutines
// at once; a live writer's pack is never taken, and neither is a pack
// whose last record is torn. Every entry stays readable.
func TestWritersTakeOverIdlePacks(t *testing.T) {
	if !packLocks {
		t.Skip("no pack locks on this platform: every writer makes its own pack")
	}
	dir := t.TempDir()
	const runs, putters = 20, 4
	key := func(run, g int) string { return fmt.Sprintf("run%02d-%d", run, g) }
	for i := 0; i < runs; i++ {
		s := mustOpen(t, dir, Options{Compress: i%2 == 1})
		var wg sync.WaitGroup
		for g := 0; g < putters; g++ {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				if err := s.Put(testSchema, key(i, g), []byte(key(i, g))); err != nil {
					t.Error(err)
				}
			}(i, g)
		}
		wg.Wait()
		release(s)
	}
	if packs := packFiles(t, dir); len(packs) != 1 {
		t.Fatalf("%d sequential writers left %d packs, want 1: %v", runs, len(packs), packs)
	}

	// Two live writers: the second cannot take the first's pack.
	a, b := mustOpen(t, dir, Options{}), mustOpen(t, dir, Options{})
	for i, s := range []*Disk{a, b} {
		if err := s.Put(testSchema, fmt.Sprintf("live%d", i), []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	pa, pb := a.w.path, b.w.path
	if pa == pb {
		t.Fatal("two live writers append to one pack")
	}
	// b's pack, torn by a crash, is not taken over either.
	release(a)
	release(b)
	torn := record(testSchema, "torn", []byte("torn record"))
	f, err := os.OpenFile(pb, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-1]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c := mustOpen(t, dir, Options{})
	if err := c.Put(testSchema, "after", []byte("after")); err != nil {
		t.Fatal(err)
	}
	if c.w.path != pa {
		t.Fatalf("writer took %s, want the whole idle pack %s", c.w.path, pa)
	}
	if packs := packFiles(t, dir); len(packs) != 2 {
		t.Fatalf("pack directory holds %v, want 2 packs", packs)
	}
	r := mustOpen(t, dir, Options{})
	for i := 0; i < runs; i++ {
		for g := 0; g < putters; g++ {
			if got, ok := r.Get(testSchema, key(i, g)); !ok || string(got) != key(i, g) {
				t.Fatalf("%s = %q/%v", key(i, g), got, ok)
			}
		}
	}
	for _, key := range []string{"live0", "live1", "after"} {
		if _, ok := r.Get(testSchema, key); !ok {
			t.Fatalf("%s missing", key)
		}
	}
	if _, ok := r.Get(testSchema, "torn"); ok {
		t.Fatal("torn record served")
	}
	if st := r.Stats(); st.Corruptions != 0 {
		t.Fatalf("corruptions %d", st.Corruptions)
	}
}

// TestSiblingWriters: two stores on one directory, one gzipping, each
// Put 500 entries while reading the other's, then each reads all
// 1,000. Nothing is corrupt, and the directory holds the manifest and
// one pack per writer.
func TestSiblingWriters(t *testing.T) {
	dir := t.TempDir()
	writers := []*Disk{mustOpen(t, dir, Options{}), mustOpen(t, dir, Options{Compress: true})}
	const perWriter = 500
	key := func(w, i int) string { return fmt.Sprintf("w%d-%03d", w, i) }
	payload := func(w, i int) []byte { return []byte(strings.Repeat(key(w, i)+" ", i%7+1)) }
	var wg sync.WaitGroup
	for w, s := range writers {
		wg.Add(1)
		go func(w int, s *Disk) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put(testSchema, key(w, i), payload(w, i)); err != nil {
					t.Error(err)
					return
				}
				// Read the other writer's entry of the same index: it
				// may not be written yet, or be mid-append.
				if got, ok := s.Get(testSchema, key(1-w, i)); ok && !bytes.Equal(got, payload(1-w, i)) {
					t.Errorf("writer %d read %q for %s", w, got, key(1-w, i))
					return
				}
			}
		}(w, s)
	}
	wg.Wait()
	for r, s := range writers {
		for w := range writers {
			for i := 0; i < perWriter; i++ {
				if got, ok := s.Get(testSchema, key(w, i)); !ok || !bytes.Equal(got, payload(w, i)) {
					t.Fatalf("store %d: %s = %q/%v", r, key(w, i), got, ok)
				}
			}
		}
		if st := s.Stats(); st.Corruptions != 0 {
			t.Fatalf("store %d: %d corruptions", r, st.Corruptions)
		}
	}
	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range root {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != manifestName+" "+packDir {
		t.Fatalf("store root holds %v, want [%s %s]", names, manifestName, packDir)
	}
	if packs := packFiles(t, dir); len(packs) != len(writers) {
		t.Fatalf("pack directory holds %v, want one pack per writer", packs)
	}
}

// TestManyPacksFewDescriptors: a directory that 1,500 writers have
// each left a pack in opens, and serves a hit from every pack, while
// the process holds fewer than 100 descriptors: only a writer's own
// pack stays open.
func TestManyPacksFewDescriptors(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	const writers = 1500
	dir := t.TempDir()
	for i := 0; i < writers; i++ {
		key := fmt.Sprintf("k%04d", i)
		writePack(t, dir, fmt.Sprintf("1-%04d.pack", i), record(testSchema, key, []byte(key)))
	}
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	s := mustOpen(t, dir, Options{})
	if n := fds(); n >= 100 {
		t.Fatalf("%d descriptors open after Open", n)
	}
	for i := 0; i < writers; i++ {
		key := fmt.Sprintf("k%04d", i)
		if got, ok := s.Get(testSchema, key); !ok || string(got) != key {
			t.Fatalf("%s = %q/%v", key, got, ok)
		}
	}
	if err := s.Put(testSchema, "new", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := fds(); n >= 100 {
		t.Fatalf("%d descriptors open after reading every pack", n)
	}
}

// TestManifestBumpInvalidates: a root written under a different format
// generation is wiped clean at Open, not misread — but only castore's
// own directories go: a foreign file and the job store's .jobstore
// directory, which pynamic-serve keeps in the same -cache-dir, survive.
func TestManifestBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(testSchema, "old-entry", []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as another format, keep a foreign file, a
	// job store WAL and a castore/1 schema directory around; reopening
	// must drop the entries and the schema directory, keep the foreign
	// file and the WAL, and restore the current manifest.
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"format":"castore/999"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not castore's file"), 0o644); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, ".jobstore", "wal-node1.jsonl")
	if err := os.MkdirAll(filepath.Dir(wal), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, []byte(`{"seq":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldSchema := filepath.Join(dir, testSchema)
	if err := os.MkdirAll(oldSchema, 0o755); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if _, ok := s2.Get(testSchema, "old-entry"); ok {
		t.Fatal("entry from a foreign format generation survived reopen")
	}
	if packs := packFiles(t, dir); len(packs) != 0 {
		t.Fatalf("packs survived the format bump: %v", packs)
	}
	if _, err := os.Stat(oldSchema); !os.IsNotExist(err) {
		t.Fatalf("old schema directory survived the format bump (stat err %v)", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign root file was touched: %v", err)
	}
	if data, err := os.ReadFile(wal); err != nil || string(data) != `{"seq":1}`+"\n" {
		t.Fatalf("job store WAL was touched: %q, %v", data, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || !strings.Contains(string(data), formatVersion) {
		t.Fatalf("manifest not restored: %q, %v", data, err)
	}
}

// TestInvalidNamesRejected: schema labels and keys that could escape
// the root or collide with store metadata are refused on Put and read
// as misses, never as paths.
func TestInvalidNamesRejected(t *testing.T) {
	bad := []string{"", ".", "..", ".hidden", "a/b", "a\\b", "a b", manifestName, "k\x00y",
		strings.Repeat("k", maxNameLen+1)}
	for name, s := range stores(t) {
		for _, k := range bad {
			if err := s.Put(testSchema, k, []byte("x")); err == nil {
				t.Fatalf("%s: Put accepted key %q", name, k)
			}
			if err := s.Put(k, "key", []byte("x")); err == nil {
				t.Fatalf("%s: Put accepted schema %q", name, k)
			}
			if _, ok := s.Get(testSchema, k); ok {
				t.Fatalf("%s: Get hit for key %q", name, k)
			}
		}
	}
}
