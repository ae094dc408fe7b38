package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to WAL replay, the decoder a node
// trusts after a crash. Replay must not panic; it must keep exactly the
// records of the '\n'-terminated lines before the first line that does
// not decode; and reading the bytes as a sibling's WAL in two pieces,
// split at any offset, must build the same table as one read.
func FuzzWALReplay(f *testing.F) {
	rec := func(seq uint64, hash, status string, attempt int) []byte {
		line, err := json.Marshal(walRecord{Seq: seq, Job: Job{Hash: hash,
			Spec: json.RawMessage(`{"kind":"run"}`), Status: status, Attempt: attempt,
			Submitted: 1, Updated: int64(seq)}})
		if err != nil {
			f.Fatal(err)
		}
		return append(line, '\n')
	}
	valid := bytes.Join([][]byte{rec(1, "a", StatusQueued, 0), rec(2, "a", StatusRunning, 1),
		rec(3, "b", StatusQueued, 0), rec(4, "a", StatusDone, 1)}, nil)
	f.Add(valid, uint(len(valid)/2), uint8(0))
	f.Add(valid, uint(7), uint8(2))
	f.Add(valid[:len(valid)-5], uint(len(valid)-5), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint, watermark uint8) {
		wm := uint64(watermark)
		one := newTable()
		_, readN, readRecords := readWAL(one, bytes.NewReader(data), wm)

		// The records a replay keeps, found line by line.
		want := newTable()
		var n int64
		records := 0
		lines := bytes.Split(data, []byte{'\n'})
		for _, line := range lines[:len(lines)-1] { // the last piece lacks its '\n'
			if len(line) > 0 {
				var r walRecord
				if json.Unmarshal(line, &r) != nil {
					break
				}
				records++
				if r.Seq > wm {
					want.absorb(r.Job)
				}
			}
			n += int64(len(line)) + 1
		}
		if readN != n || readRecords != records {
			t.Fatalf("replay read %d bytes and %d records, want %d and %d", readN, readRecords, n, records)
		}
		rowsEqual(t, want.list(), one.list(), "one read")

		// The same bytes as a sibling's WAL, written and tailed in two
		// pieces.
		dir := t.TempDir()
		d := &Disk{dir: dir, stem: "reader", t: newTable(), stamps: map[string]fileStamp{},
			tails: map[string]*walTail{}, siblingSeqs: map[string]uint64{"sib": wm}}
		defer d.closeTailsLocked()
		path := filepath.Join(dir, walPrefix+"sib"+walSuffix)
		k := int(split % uint(len(data)+1))
		if err := os.WriteFile(path, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		must(t, d.refreshLocked())
		wal, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		_, err = wal.Write(data[k:])
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		must(t, err)
		must(t, d.refreshLocked())
		rowsEqual(t, one.list(), d.t.list(), fmt.Sprintf("two reads split at %d", k))
		if d.decoded != records {
			t.Fatalf("two reads decoded %d records, one read %d", d.decoded, records)
		}
	})
}
