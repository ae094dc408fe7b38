package castore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzCastorePack checks the pack reader, which a process trusts with
// whatever other writers, and their crashes, left on disk, and the
// writer. Any bytes written as another writer's pack must never panic,
// and a store that indexes them must serve, for every key they name,
// exactly the payload of that key's last complete record whose CRC
// holds in the framed prefix, decoded, and miss every other key. A
// store that reads the bytes in two pieces, the second appended after a
// first read, must index the same entries and count the same
// corruptions as one that reads them at once. A writer then Puts
// payload, gzipped or not, into the same directory, appending behind
// the fuzz bytes when it takes their pack over: it and a reopen must
// read payload back.
func FuzzCastorePack(f *testing.F) {
	f.Fuzz(func(t *testing.T, pack []byte, cut uint16, payload []byte, compress bool) {
		want := packPayloads(pack)
		keys := packKeys(pack)

		whole := t.TempDir()
		writePack(t, whole, "sibling.pack", pack)
		once := mustOpen(t, whole, Options{})

		pieces := t.TempDir()
		twice := mustOpen(t, pieces, Options{})
		c := int(cut) % (len(pack) + 1)
		writePack(t, pieces, "sibling.pack", pack[:c])
		twice.refresh() // reads the first piece
		pf, err := os.OpenFile(filepath.Join(pieces, packDir, "sibling.pack"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pf.Write(pack[c:]); err != nil {
			t.Fatal(err)
		}
		pf.Close()
		twice.refresh() // and the second

		for name, s := range map[string]*Disk{"one piece": once, "two pieces": twice} {
			for _, k := range keys {
				got, ok := s.Get(k[0], k[1])
				w, hit := want[entryKey(k[0], k[1])]
				switch {
				case ok != hit:
					t.Fatalf("%s: Get(%s, %s) hit=%v, want %v", name, k[0], k[1], ok, hit)
				case ok && !bytes.Equal(got, w):
					t.Fatalf("%s: Get(%s, %s) = %q, the pack encodes %q", name, k[0], k[1], got, w)
				}
			}
		}
		if a, b := once.Stats().Corruptions, twice.Stats().Corruptions; a != b {
			t.Fatalf("corruptions: %d reading at once, %d reading in two pieces (cut %d)", a, b, c)
		}

		key := "round-trip"
		for _, k := range keys {
			if k == [2]string{testSchema, key} {
				key += "-x"
			}
		}
		w := mustOpen(t, whole, Options{Compress: compress})
		if err := w.Put(testSchema, key, payload); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Disk{"writer": w, "reopened": mustOpen(t, whole, Options{})} {
			if got, ok := s.Get(testSchema, key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("%s: Put %q (gzip %v), Get = %q/%v", name, payload, compress, got, ok)
			}
		}
	})
}

// oracleName is validName as a pattern.
var oracleName = regexp.MustCompile(`^[A-Za-z0-9_-][A-Za-z0-9._-]{0,254}$`)

// oracleHeader parses line as a record header by the format alone:
// "castore/2 <schema> <key> <raw|gzip> <length> <CRC-32 in 8 hex
// digits>", decimal without leading zeros, names as validName allows.
func oracleHeader(line string) (schema, key string, gz bool, n int, crc uint32, ok bool) {
	f := strings.Split(line, " ")
	if len(f) != 6 || f[0] != "castore/2" || (f[3] != "raw" && f[3] != "gzip") {
		return
	}
	for _, name := range f[1:3] {
		if !oracleName.MatchString(name) || name == "MANIFEST" {
			return
		}
	}
	n, err := strconv.Atoi(f[4])
	if err != nil || n < 0 || n > 1<<30 {
		return
	}
	c, err := strconv.ParseUint(f[5], 16, 32)
	if err != nil || fmt.Sprintf("castore/2 %s %s %s %d %08x", f[1], f[2], f[3], n, c) != line {
		return
	}
	return f[1], f[2], f[3] == "gzip", n, uint32(c), true
}

// packPayloads decodes pack record by record until a record that is
// incomplete or whose header does not parse, and maps each key to the
// decoded payload of its last record whose CRC holds; a key whose last
// such record does not decode is absent.
func packPayloads(pack []byte) map[string][]byte {
	out := make(map[string][]byte)
	for {
		line, rest, ok := bytes.Cut(pack, []byte{'\n'})
		if !ok {
			return out
		}
		schema, key, gz, n, crc, ok := oracleHeader(string(line))
		if !ok || len(rest) < n {
			return out
		}
		payload := rest[:n]
		pack = rest[n:]
		if crc32.ChecksumIEEE(payload) != crc {
			continue
		}
		id := schema + "/" + key
		delete(out, id)
		if !gz {
			out[id] = payload
			continue
		}
		zr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			continue
		}
		if data, err := io.ReadAll(zr); err == nil {
			out[id] = data
		}
	}
}

// packKeys lists the (schema, key) pairs named by a header anywhere in
// pack, framed or not, plus one key of the test schema, without
// repeats.
func packKeys(pack []byte) [][2]string {
	seen := map[[2]string]bool{{testSchema, "k"}: true}
	keys := [][2]string{{testSchema, "k"}}
	for rest := pack; ; {
		i := bytes.Index(rest, []byte("castore/2 "))
		if i < 0 {
			return keys
		}
		rest = rest[i:]
		line, _, _ := bytes.Cut(rest, []byte{'\n'})
		if schema, key, _, _, _, ok := oracleHeader(string(line)); ok && !seen[[2]string{schema, key}] {
			seen[[2]string{schema, key}] = true
			keys = append(keys, [2]string{schema, key})
		}
		rest = rest[1:]
	}
}
