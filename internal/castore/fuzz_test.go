package castore

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCastoreEntry checks the entry decoder, which a restarted process
// trusts with whatever a crash left on disk. A Put of any payload, with
// or without gzip, must read back byte for byte. Then arbitrary bytes
// written over that entry's file must read back as either a hit that
// serves exactly the payload those bytes encode (for the bytes the Put
// wrote, the payload it stored), or a miss that counts one corruption
// and removes the file. It must never panic.
func FuzzCastoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, compress bool, file []byte) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		const key = "k"
		if err := s.Put(testSchema, key, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(testSchema, key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip (gzip %v): got %q ok=%v, want %q", compress, got, ok, payload)
		}
		path := filepath.Join(dir, testSchema, key)
		stored, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Remove, then write: ext4 (auto_da_alloc) flushes a file
		// truncated in place when it is closed, which would be most of
		// an exec's time.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		corrupt(t, dir, testSchema, key, file)
		before := s.Stats()
		got, ok := s.Get(testSchema, key)
		after := s.Stats()
		want, valid := entryPayload(file, testSchema)
		if bytes.Equal(file, stored) && (!valid || !bytes.Equal(want, payload)) {
			t.Fatalf("the stored file decodes to %q valid=%v, want %q", want, valid, payload)
		}
		_, statErr := os.Stat(path)
		switch {
		case ok != valid:
			t.Fatalf("Get hit=%v on a file whose validity is %v", ok, valid)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("hit served %q, the file encodes %q", got, want)
		case ok && (after.Hits != before.Hits+1 || after.Corruptions != before.Corruptions || statErr != nil):
			t.Fatalf("hit: stats %+v -> %+v, stat err %v", before, after, statErr)
		case !ok && (after.Corruptions != before.Corruptions+1 || after.Misses != before.Misses+1 || !os.IsNotExist(statErr)):
			t.Fatalf("miss: stats %+v -> %+v, stat err %v", before, after, statErr)
		}
	})
}

// entryPayload decodes file by the entry format alone: a
// "castore/1 <schema> raw" or "castore/1 <schema> gzip" header line,
// then the payload, gzip-compressed when the header says so.
func entryPayload(file []byte, schema string) ([]byte, bool) {
	header, body, ok := bytes.Cut(file, []byte{'\n'})
	if !ok {
		return nil, false
	}
	switch string(header) {
	case "castore/1 " + schema + " raw":
		return body, true
	case "castore/1 " + schema + " gzip":
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return nil, false
		}
		data, err := io.ReadAll(zr)
		return data, err == nil
	}
	return nil, false
}
