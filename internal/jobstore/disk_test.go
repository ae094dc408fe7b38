package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openDisk(t *testing.T, dir, node string) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, node)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", node, err)
	}
	return d
}

func rowsEqual(t *testing.T, a, b []Job, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows\n%+v\n%+v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			t.Fatalf("%s: row %d differs:\n%+v\n%+v", label, i, a[i], b[i])
		}
		if string(a[i].Spec) != string(b[i].Spec) {
			t.Fatalf("%s: row %d spec bytes differ", label, i)
		}
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	must(t, d.Put(mkJob("a", t0)))
	must(t, d.Put(mkJob("b", t0.Add(time.Second))))
	if _, err := d.Claim("n1", "a", t0.Add(2*time.Second), time.Minute); err != nil {
		t.Fatal(err)
	}
	must(t, d.Complete("a", "n1", StatusDone, "", t0.Add(3*time.Second)))
	before := d.List()
	must(t, d.Close())

	re := openDisk(t, dir, "n1")
	defer re.Close()
	rowsEqual(t, before, re.List(), "after clean close")
	if re.RecoveredJobs() != 1 { // only "b" is non-terminal
		t.Fatalf("RecoveredJobs = %d, want 1", re.RecoveredJobs())
	}
}

func TestDiskCrashBetweenAppendAndCompaction(t *testing.T) {
	// The ISSUE's crash window: records appended to the WAL, process
	// killed before any compaction. Reopen must replay to the same
	// List/Claim state.
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	for i := 0; i < 10; i++ {
		must(t, d.Put(mkJob(fmt.Sprintf("j%02d", i), t0.Add(time.Duration(i)*time.Second))))
	}
	if _, err := d.Claim("n1", "j03", t0.Add(time.Minute), time.Minute); err != nil {
		t.Fatal(err)
	}
	must(t, d.Complete("j03", "n1", StatusFailed, "boom", t0.Add(2*time.Minute)))
	before := d.List()
	// Crash: no Close, no compaction — the WAL is the only record.

	re := openDisk(t, dir, "n1")
	defer re.Close()
	rowsEqual(t, before, re.List(), "after crash replay")
	// Claim semantics must also survive: the failed job is not
	// claimable, the queued ones are.
	if _, err := re.Claim("n1", "j03", t0.Add(3*time.Minute), time.Minute); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("failed job claimable after replay: %v", err)
	}
	j, err := re.Claim("n1", "", t0.Add(3*time.Minute), time.Minute)
	if err != nil || j.Hash != "j00" {
		t.Fatalf("wildcard claim after replay = %+v err=%v", j, err)
	}
}

func TestDiskCrashMidJobRecoversRunningRow(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	must(t, d.Put(mkJob("x", t0)))
	ttl := 10 * time.Second
	if _, err := d.Claim("n1", "x", t0, ttl); err != nil {
		t.Fatal(err)
	}
	// Crash mid-job. A restarted process under the same node id may
	// re-adopt immediately; a sibling must wait for lease expiry.
	re := openDisk(t, dir, "n1")
	defer re.Close()
	j, ok := re.Get("x")
	if !ok || j.Status != StatusRunning || j.Owner != "n1" || j.Attempt != 1 {
		t.Fatalf("running row lost in crash: %+v ok=%v", j, ok)
	}
	if re.RecoveredJobs() != 1 {
		t.Fatalf("RecoveredJobs = %d, want 1", re.RecoveredJobs())
	}
	reclaimed, err := re.Claim("n1", "x", t0.Add(time.Second), ttl)
	if err != nil || reclaimed.Attempt != 2 {
		t.Fatalf("self re-claim = %+v err=%v", reclaimed, err)
	}
}

func TestDiskStaleWALSkippedByWatermark(t *testing.T) {
	// Crash window between snapshot rename and WAL truncation: the WAL
	// still holds records already folded into the snapshot. Craft that
	// state by hand and verify replay does not regress the row.
	dir := t.TempDir()
	stem := nodeStem("n1")
	newer := Job{Hash: "x", Spec: json.RawMessage(`{}`), Status: StatusRunning,
		Owner: "n1", Attempt: 2, Submitted: 1, Updated: 9}
	snap := snapshotFile{Format: diskFormat, Node: "n1", LastSeq: 5, Jobs: []Job{newer}}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	must(t, os.WriteFile(filepath.Join(dir, manifestName), []byte(diskFormat+"\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, snapPrefix+stem+snapSuffix), data, 0o644))
	stale := Job{Hash: "x", Spec: json.RawMessage(`{}`), Status: StatusQueued,
		Attempt: 1, Submitted: 1, Updated: 1}
	line, _ := json.Marshal(walRecord{Seq: 3, Job: stale})
	must(t, os.WriteFile(filepath.Join(dir, walPrefix+stem+walSuffix), append(line, '\n'), 0o644))

	d := openDisk(t, dir, "n1")
	defer d.Close()
	j, ok := d.Get("x")
	if !ok || !sameRow(j, newer) {
		t.Fatalf("stale WAL regressed row: %+v ok=%v", j, ok)
	}
}

func TestDiskTornTrailingLineTolerated(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	must(t, d.Put(mkJob("a", t0)))
	must(t, d.Put(mkJob("b", t0.Add(time.Second))))
	// Crash mid-append of a third record: a torn half-line at the tail.
	walPath := filepath.Join(dir, walPrefix+nodeStem("n1")+walSuffix)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	must(t, err)
	_, err = f.WriteString(`{"seq":99,"job":{"hash":"c","sta`)
	must(t, err)
	must(t, f.Close())

	re := openDisk(t, dir, "n1")
	defer re.Close()
	list := re.List()
	if len(list) != 2 {
		t.Fatalf("torn tail corrupted replay: %+v", list)
	}
}

func TestDiskTwoNodesShareDirectory(t *testing.T) {
	dir := t.TempDir()
	a := openDisk(t, dir, "node-a")
	defer a.Close()
	b := openDisk(t, dir, "node-b")
	defer b.Close()

	must(t, a.Put(mkJob("x", t0)))
	// b sees a's submission on its next read.
	j, ok := b.Get("x")
	if !ok || j.Status != StatusQueued {
		t.Fatalf("sibling put not visible: %+v ok=%v", j, ok)
	}
	ttl := 10 * time.Second
	if _, err := b.Claim("node-b", "x", t0, ttl); err != nil {
		t.Fatal(err)
	}
	// a sees the claim and cannot double-claim under a live lease.
	if _, err := a.Claim("node-a", "x", t0.Add(time.Second), ttl); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("double claim across nodes: %v", err)
	}
	// After the lease expires, a steals.
	stolen, err := a.Claim("node-a", "x", t0.Add(ttl+time.Second), ttl)
	if err != nil || stolen.Owner != "node-a" || stolen.Attempt != 2 {
		t.Fatalf("steal = %+v err=%v", stolen, err)
	}
	must(t, a.Complete("x", "node-a", StatusDone, "", t0.Add(ttl+2*time.Second)))
	// b converges on done even though its last write said "running".
	j, _ = b.Get("x")
	if j.Status != StatusDone {
		t.Fatalf("sibling did not converge to done: %+v", j)
	}
}

func TestDiskSurvivorDrainsCrashedNodesQueue(t *testing.T) {
	// A node writes jobs and "crashes" (no Close). A different node
	// opening the same directory must see and drain the whole queue —
	// the fleet steal scenario at the store level.
	dir := t.TempDir()
	a := openDisk(t, dir, "node-a")
	for i := 0; i < 5; i++ {
		must(t, a.Put(mkJob(fmt.Sprintf("j%d", i), t0.Add(time.Duration(i)*time.Second))))
	}
	if _, err := a.Claim("node-a", "j0", t0.Add(time.Minute), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// node-a crashes here: WAL left in place, lease on j0 expires.

	b := openDisk(t, dir, "node-b")
	defer b.Close()
	now := t0.Add(2 * time.Minute)
	for i := 0; i < 5; i++ {
		j, err := b.Claim("node-b", "", now, time.Minute)
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		must(t, b.Complete(j.Hash, "node-b", StatusDone, "", now.Add(time.Second)))
	}
	for _, j := range b.List() {
		if j.Status != StatusDone {
			t.Fatalf("queue not drained: %+v", j)
		}
	}
}

func TestDiskCompactionThresholdAndCleanClose(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	base := d.Compactions()
	// Drive well past the compaction threshold.
	for i := 0; i < compactEvery+10; i++ {
		must(t, d.Put(mkJob(fmt.Sprintf("j%03d", i), t0.Add(time.Duration(i)*time.Second))))
	}
	if d.Compactions() <= base {
		t.Fatalf("no compaction after %d mutations", compactEvery+10)
	}
	before := d.List()
	must(t, d.Close())
	// A clean close leaves an empty (nothing-to-replay) WAL.
	fi, err := os.Stat(filepath.Join(dir, walPrefix+nodeStem("n1")+walSuffix))
	must(t, err)
	if fi.Size() != 0 {
		t.Fatalf("WAL not compacted on close: %d bytes", fi.Size())
	}
	re := openDisk(t, dir, "n1")
	defer re.Close()
	rowsEqual(t, before, re.List(), "after threshold compaction + close")
}

func TestDiskManifestMismatchWipes(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, manifestName), []byte("pynamic-jobstore/0\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, walPrefix+"old-00000000"+walSuffix), []byte("junk\n"), 0o644))
	d := openDisk(t, dir, "n1")
	defer d.Close()
	if got := len(d.List()); got != 0 {
		t.Fatalf("stale files survived format bump: %d jobs", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	must(t, err)
	if strings.TrimSpace(string(data)) != diskFormat {
		t.Fatalf("manifest not rewritten: %q", data)
	}
}

func TestDiskIgnoresForeignFiles(t *testing.T) {
	// The jobstore lives inside a castore cache dir; it must not choke
	// on neighbors it does not own.
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("hi"), 0o644))
	d := openDisk(t, dir, "n1")
	defer d.Close()
	must(t, d.Put(mkJob("x", t0)))
	if _, ok := d.Get("x"); !ok {
		t.Fatal("store unusable next to foreign files")
	}
}

func TestDiskFailedCompactionKeepsMutation(t *testing.T) {
	// A compaction runs after the WAL append has made the mutation
	// durable, so its failure must not fail the mutation.
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	base := d.Compactions()
	// A non-empty directory where compaction writes a file makes it fail.
	block := func(path string) {
		must(t, os.RemoveAll(path))
		must(t, os.MkdirAll(filepath.Join(path, "occupied"), 0o755))
	}
	snap := filepath.Join(dir, snapPrefix+nodeStem("n1")+snapSuffix)
	block(snap)
	for i := 0; i < compactEvery; i++ {
		h := fmt.Sprintf("j%03d", i)
		if err := d.Put(mkJob(h, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatalf("Put %s: %v", h, err)
		}
		if j, ok := d.Get(h); !ok || j.Status != StatusQueued {
			t.Fatalf("Get %s = %+v ok=%v", h, j, ok)
		}
	}
	if d.Compactions() != base {
		t.Fatalf("compaction succeeded with its snapshot path blocked")
	}
	// The log stays due, so the next append retries the compaction.
	must(t, os.RemoveAll(snap))
	must(t, d.Put(mkJob("late", t0.Add(time.Hour))))
	if d.Compactions() != base+1 {
		t.Fatalf("compaction not retried: %d compactions, want %d", d.Compactions(), base+1)
	}
	// A failure that lasts surfaces at Close: here the fresh WAL
	// cannot be created.
	tmp := filepath.Join(dir, walTempName+nodeStem("n1"))
	block(tmp)
	before := d.List()
	if err := d.Close(); err == nil {
		t.Fatal("Close returned nil with its compaction failing")
	}
	must(t, os.RemoveAll(tmp))
	re := openDisk(t, dir, "n1")
	defer re.Close()
	rowsEqual(t, before, re.List(), "after reopen")
}

// TestDiskFailedAppendChangesNothing: a mutation whose WAL write fails
// returns the error and leaves no trace — not in Get or List, which the
// steal loop reads, and not after a restart.
func TestDiskFailedAppendChangesNothing(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	must(t, d.Put(mkJob("a", t0)))
	must(t, d.wal.Close()) // every later append fails
	// So does the rotation to a fresh WAL that follows a failed append:
	// a non-empty directory sits where it writes the snapshot.
	snap := filepath.Join(dir, snapPrefix+nodeStem("n1")+snapSuffix)
	must(t, os.RemoveAll(snap))
	must(t, os.MkdirAll(filepath.Join(snap, "occupied"), 0o755))
	if err := d.Put(mkJob("b", t0.Add(time.Second))); err == nil {
		t.Fatal("Put succeeded with its WAL closed")
	}
	if j, ok := d.Get("b"); ok {
		t.Fatalf("failed Put left a row: %+v", j)
	}
	if _, err := d.Claim("n1", "a", t0.Add(2*time.Second), time.Minute); err == nil {
		t.Fatal("Claim succeeded with its WAL closed and its rotation blocked")
	}
	if j, _ := d.Get("a"); j.Status != StatusQueued || j.Owner != "" || j.Attempt != 0 {
		t.Fatalf("failed Claim changed the row: %+v", j)
	}
	if n := len(d.List()); n != 1 {
		t.Fatalf("List has %d rows, want 1", n)
	}

	// Crash and restart: the WAL holds the one acknowledged Put.
	must(t, os.RemoveAll(snap))
	re := openDisk(t, dir, "n1")
	defer re.Close()
	if j, ok := re.Get("b"); ok {
		t.Fatalf("restart found the failed Put's row: %+v", j)
	}
	if j, ok := re.Get("a"); !ok || j.Status != StatusQueued {
		t.Fatalf("restart: row a = %+v ok=%v, want queued", j, ok)
	}
}

// TestDiskAppendAfterTornLine: a failed append can leave part of a
// line in the WAL, where replay and sibling tails stop. A later
// append must not land behind it, or its acknowledged row is lost at
// restart.
func TestDiskAppendAfterTornLine(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	must(t, d.Put(mkJob("a", t0)))
	// A short write: half of b's line reaches the WAL, then the append
	// fails.
	b := mkJob("b", t0.Add(time.Second))
	line, err := json.Marshal(walRecord{Seq: d.seq + 1, Job: b})
	must(t, err)
	f, err := os.OpenFile(filepath.Join(dir, walPrefix+nodeStem("n1")+walSuffix), os.O_WRONLY|os.O_APPEND, 0o644)
	must(t, err)
	_, err = f.Write(line[:len(line)/2])
	must(t, err)
	must(t, f.Close())
	must(t, d.wal.Close())
	if err := d.Put(b); err == nil {
		t.Fatal("Put succeeded with its WAL closed")
	}
	must(t, d.Put(mkJob("c", t0.Add(2*time.Second))))

	// Crash and restart: no Close.
	re := openDisk(t, dir, "n1")
	defer re.Close()
	for _, h := range []string{"a", "c"} {
		if j, ok := re.Get(h); !ok || j.Status != StatusQueued {
			t.Fatalf("restart: row %s = %+v ok=%v, want queued", h, j, ok)
		}
	}
	if j, ok := re.Get("b"); ok {
		t.Fatalf("restart found the failed Put's row: %+v", j)
	}
}

func TestDiskCompactionAmortized(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, "n1")
	job := func(i int) {
		h := fmt.Sprintf("j%05d", i)
		at := t0.Add(time.Duration(i) * time.Second)
		must(t, d.Put(mkJob(h, at)))
		if _, err := d.Claim("n1", h, at, time.Minute); err != nil {
			t.Fatal(err)
		}
		must(t, d.Complete(h, "n1", StatusDone, "", at))
	}
	const jobs = 4000
	for i := 0; i < jobs; i++ {
		job(i)
	}
	// Compacting every 128 appends would take 94 snapshots here; a
	// snapshot per table's worth of appends takes about a dozen.
	if n := d.Compactions(); n > 20 {
		t.Fatalf("%d compactions for %d jobs, want at most 20", n, jobs)
	}
	// Run on until the next job would compact, so the WAL is at its
	// longest, then crash: no Close.
	for i := jobs; len(d.t.jobs)-d.walRecords > 2; i++ {
		job(i)
	}
	before := d.List()
	re := openDisk(t, dir, "n1")
	defer re.Close()
	rowsEqual(t, before, re.List(), "after crash with a long WAL")
	if re.decoded != d.walRecords || re.decoded > len(before) {
		t.Fatalf("replay decoded %d records, want the WAL's %d, at most the table's %d rows",
			re.decoded, d.walRecords, len(before))
	}
}

func TestDiskSiblingReadsOnlyNewWALBytes(t *testing.T) {
	dir := t.TempDir()
	a := openDisk(t, dir, "node-a")
	defer a.Close()
	b := openDisk(t, dir, "node-b")
	defer b.Close()
	seq0, decoded0 := a.seq, b.decoded
	// Enough jobs that a compacts, and replaces its WAL, several times.
	for i := 0; i < 3*compactEvery; i++ {
		h := fmt.Sprintf("j%03d", i)
		at := t0.Add(time.Duration(i) * time.Second)
		must(t, a.Put(mkJob(h, at)))
		if j, ok := b.Get(h); !ok || j.Status != StatusQueued {
			t.Fatalf("sibling put not visible: %+v ok=%v", j, ok)
		}
		if _, err := a.Claim("node-a", h, at, time.Minute); err != nil {
			t.Fatal(err)
		}
		if j, _ := b.Get(h); j.Status != StatusRunning {
			t.Fatalf("sibling claim not visible: %+v", j)
		}
		must(t, a.Complete(h, "node-a", StatusDone, "", at))
		if j, _ := b.Get(h); j.Status != StatusDone {
			t.Fatalf("sibling completion not visible: %+v", j)
		}
	}
	if a.Compactions() < 3 {
		t.Fatalf("only %d compactions: the WAL was never replaced", a.Compactions())
	}
	// Re-reading a's WAL from its start on every refresh would decode
	// up to a whole log per read.
	appended, decoded := int(a.seq-seq0), b.decoded-decoded0
	if decoded > appended+2 {
		t.Fatalf("b decoded %d WAL records for the %d a appended", decoded, appended)
	}
}

func TestDiskSiblingRereadsReplacedWAL(t *testing.T) {
	dir := t.TempDir()
	a := openDisk(t, dir, "node-a")
	defer a.Close()
	b := openDisk(t, dir, "node-b")
	defer b.Close()
	walPath := filepath.Join(dir, walPrefix+nodeStem("node-a")+walSuffix)
	for i := 0; i < 3; i++ {
		must(t, a.Put(mkJob(fmt.Sprintf("old%d", i), t0.Add(time.Duration(i)*time.Second))))
	}
	b.List()
	read := b.tails[walPath].off
	if read == 0 {
		t.Fatal("b read nothing of a's WAL")
	}
	// Between two of b's reads, a compacts and then appends more bytes
	// than b had read: b's position means nothing in the new file.
	a.mu.Lock()
	must(t, a.compactLocked())
	a.mu.Unlock()
	for i := 0; ; i++ {
		fi, err := os.Stat(walPath)
		must(t, err)
		if fi.Size() > read {
			break
		}
		must(t, a.Put(mkJob(fmt.Sprintf("new%d", i), t0.Add(time.Minute+time.Duration(i)*time.Second))))
	}
	rowsEqual(t, a.List(), b.List(), "after a replaced its WAL")
}

func TestDiskSiblingWaitsForTornLine(t *testing.T) {
	dir := t.TempDir()
	a := openDisk(t, dir, "node-a")
	defer a.Close()
	b := openDisk(t, dir, "node-b")
	defer b.Close()
	must(t, a.Put(mkJob("x", t0)))
	decoded0 := b.decoded
	// An append of a's still in flight: half a record line.
	y := mkJob("y", t0.Add(time.Second))
	y.Status, y.Updated = StatusQueued, y.Submitted
	line, err := json.Marshal(walRecord{Seq: a.seq + 1, Job: y})
	must(t, err)
	line = append(line, '\n')
	f, err := os.OpenFile(filepath.Join(dir, walPrefix+nodeStem("node-a")+walSuffix), os.O_WRONLY|os.O_APPEND, 0o644)
	must(t, err)
	defer f.Close()
	for _, part := range [][]byte{line[:len(line)/2], line[len(line)/2 : len(line)-1]} {
		_, err = f.Write(part)
		must(t, err)
		if _, ok := b.Get("x"); !ok {
			t.Fatal("complete record before the torn line not visible")
		}
		if j, ok := b.Get("y"); ok {
			t.Fatalf("torn line consumed: %+v", j)
		}
	}
	_, err = f.Write(line[len(line)-1:])
	must(t, err)
	if j, ok := b.Get("y"); !ok || !sameRow(j, y) {
		t.Fatalf("completed line not read: %+v ok=%v", j, ok)
	}
	if got := b.decoded - decoded0; got != 2 {
		t.Fatalf("b decoded %d records, want x and y once each", got)
	}
}

func TestDiskConcurrentSiblingsConverge(t *testing.T) {
	// Two nodes share a directory, each written and read by several
	// goroutines at once, across compactions and WAL replacements.
	dir := t.TempDir()
	nodes := []*Disk{openDisk(t, dir, "node-a"), openDisk(t, dir, "node-b")}
	const workers, jobs = 2, 2 * compactEvery
	var wg sync.WaitGroup
	for n, d := range nodes {
		other := nodes[1-n]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(d, other *Disk, prefix string) {
				defer wg.Done()
				for i := 0; i < jobs; i++ {
					h := fmt.Sprintf("%s-%03d", prefix, i)
					at := t0.Add(time.Duration(i) * time.Second)
					if err := d.Put(mkJob(h, at)); err != nil {
						t.Error(err)
						return
					}
					if _, err := d.Claim(d.node, h, at, time.Minute); err != nil {
						t.Error(err)
						return
					}
					if err := d.Complete(h, d.node, StatusDone, "", at); err != nil {
						t.Error(err)
						return
					}
					other.Get(h)
				}
			}(d, other, fmt.Sprintf("n%dw%d", n, w))
		}
	}
	wg.Wait()
	a, b := nodes[0].List(), nodes[1].List()
	if len(a) != 2*workers*jobs {
		t.Fatalf("%d rows, want %d", len(a), 2*workers*jobs)
	}
	for _, j := range a {
		if j.Status != StatusDone {
			t.Fatalf("row not done: %+v", j)
		}
	}
	rowsEqual(t, a, b, "siblings after concurrent writes")
	for _, d := range nodes {
		must(t, d.Close())
	}
}

// BenchmarkDiskSiblingGet times a sibling's read of each row right
// after another node wrote it: node A puts, claims and completes b.N
// jobs with ~450-byte specs, and node B Gets each one once A has
// completed it. Only B's Gets are timed; -benchtime=4000x gives the
// 4,000-job figure.
func BenchmarkDiskSiblingGet(b *testing.B) {
	dir := b.TempDir()
	a, err := OpenDisk(dir, "node-a")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	sib, err := OpenDisk(dir, "node-b")
	if err != nil {
		b.Fatal(err)
	}
	defer sib.Close()
	spec := json.RawMessage(fmt.Sprintf(`{"pynamic_spec":"v1","kind":"job","pad":%q}`, strings.Repeat("x", 400)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := fmt.Sprintf("%064x", i)
		at := t0.Add(time.Duration(i) * time.Millisecond)
		if err := a.Put(Job{Hash: h, Spec: spec, Submitted: at.UnixNano()}); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Claim("node-a", h, at, time.Minute); err != nil {
			b.Fatal(err)
		}
		if err := a.Complete(h, "node-a", StatusDone, "", at); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if j, ok := sib.Get(h); !ok || j.Status != StatusDone {
			b.Fatalf("row %d not converged: %+v ok=%v", i, j, ok)
		}
	}
}
