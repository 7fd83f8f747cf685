package crowd

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/measure"
)

// tearingFile is a spool file whose next Write lands only half its
// bytes and fails, and whose heal then fails at Truncate or at Seek.
type tearingFile struct {
	appendFile
	tear     bool
	failSeek bool // false: Truncate fails; true: Truncate works, Seek fails
}

var errInjected = errors.New("injected IO failure")

func (f *tearingFile) Write(p []byte) (int, error) {
	if !f.tear {
		return f.appendFile.Write(p)
	}
	f.tear = false
	n, _ := f.appendFile.Write(p[:len(p)/2])
	return n, errInjected
}

func (f *tearingFile) Truncate(size int64) error {
	if !f.failSeek {
		return errInjected
	}
	return f.appendFile.Truncate(size)
}

func (f *tearingFile) Seek(off int64, whence int) (int64, error) {
	if f.failSeek {
		return 0, errInjected
	}
	return f.appendFile.Seek(off, whence)
}

// A short write whose heal fails leaves torn bytes (or, after a failed
// seek, a gap) inside the file; replay stops there. So no later
// Append may succeed: every batch the spool acknowledged must replay
// after a reopen.
func TestSpoolUnhealedAppendRefusesLaterAppends(t *testing.T) {
	for _, failSeek := range []bool{false, true} {
		t.Run(fmt.Sprintf("failSeek=%v", failSeek), func(t *testing.T) {
			dir := t.TempDir()
			sp, _, err := OpenSpool(dir)
			if err != nil {
				t.Fatal(err)
			}
			first := srvBatch("p1", "k1", 1, srvRec("p1", "a", 1))
			if err := sp.Append(first); err != nil {
				t.Fatal(err)
			}
			sp.f = &tearingFile{appendFile: sp.f, tear: true, failSeek: failSeek}
			if err := sp.Append(srvBatch("p1", "k2", 2, srvRec("p1", "a", 2))); err == nil {
				t.Fatal("torn append reported success")
			}
			acked := []measure.Batch{first}
			third := srvBatch("p1", "k3", 3, srvRec("p1", "a", 3))
			if err := sp.Append(third); err == nil {
				acked = append(acked, third)
				t.Error("an append after an unhealed tear was acknowledged")
			}
			sp.Close()

			_, rep, err := OpenSpool(dir)
			if err != nil {
				t.Fatal(err)
			}
			replayed := map[string]bool{}
			for _, b := range rep.Batches {
				replayed[b.Key] = true
			}
			for _, b := range acked {
				if !replayed[b.Key] {
					t.Errorf("acknowledged batch %s lost at replay", b.Key)
				}
			}
		})
	}
}

// redeliver uploads b to s in process and returns the reply's status
// word.
func redeliver(t *testing.T, s *Server, b measure.Batch) string {
	t.Helper()
	rec := upload(s, measure.AppendBatch(nil, b), b.Device)
	for _, status := range []string{"accepted", "duplicate"} {
		if rec.Code == http.StatusOK && strings.Contains(rec.Body.String(), `"`+status+`"`) {
			return status
		}
	}
	t.Fatalf("upload %s: %d %s", b.Key, rec.Code, rec.Body)
	return ""
}

// A crash can cut the spool file at any byte. Every cut must
// reopen to exactly the batches that end at or before it, heal the
// file to that prefix, and accept each lost batch's redelivery once.
func TestSpoolTruncatedAtEveryByte(t *testing.T) {
	batches := []measure.Batch{
		srvBatch("p1", "k1", 1, srvRec("p1", "a", 1)),
		srvBatch("p2", "k2", 1, srvRec("p2", "b", 2), srvRec("p2", "b", 3)),
		srvBatch("p1", "k3", 2, srvRec("p1", "c", 4)),
	}
	dir := t.TempDir()
	sp, _, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A batch ends with its closing brace; the newline after it only
	// separates, so replay keeps a batch cut just before its newline and
	// heals the file to end at the brace.
	var ends []int64
	for _, b := range batches {
		if err := sp.Append(b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, sp.Stats().Bytes-1)
	}
	sp.Close()
	full, err := os.ReadFile(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, end := range ends {
		if full[end] != '\n' {
			t.Fatalf("batch ending at %d is not followed by a newline", end)
		}
	}

	for cut := 0; cut <= len(full); cut++ {
		cdir := t.TempDir()
		path := filepath.Join(cdir, spoolFile)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		kept, good := 0, int64(0)
		for kept < len(ends) && ends[kept] <= int64(cut) {
			good = ends[kept]
			kept++
		}

		s, err := NewServer(ServerOptions{SpoolDir: cdir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st := s.Stats(); st.Batches != kept {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, st.Batches, kept)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != good {
			t.Fatalf("cut %d: healed to %v bytes (%v), want %d", cut, fi.Size(), err, good)
		}
		for i, b := range batches {
			want := "duplicate"
			if i >= kept {
				want = "accepted"
			}
			if got := redeliver(t, s, b); got != want {
				t.Fatalf("cut %d: first redelivery of %s %s, want %s", cut, b.Key, got, want)
			}
			if got := redeliver(t, s, b); got != "duplicate" {
				t.Fatalf("cut %d: second redelivery of %s %s", cut, b.Key, got)
			}
		}
		if st := s.Stats(); st.Batches != len(batches) {
			t.Fatalf("cut %d: %d batches after redelivery, want %d", cut, st.Batches, len(batches))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, rep, err := OpenSpool(cdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Batches) != len(batches) {
			t.Fatalf("cut %d: %d batches replay after redelivery, want %d", cut, len(rep.Batches), len(batches))
		}
	}
}

// Flipping any byte of the first of three batches must never cost the
// two acknowledged batches after it: either the fault decodes (a
// string byte that comes back as U+FFFD, a renamed field) and all three
// keys replay, or OpenSpool and ReadSpool refuse the file, naming it
// and the offset, and leave it byte for byte as it was.
func TestSpoolMidFileFaultIsRefused(t *testing.T) {
	var full []byte
	first := 0
	for i := 1; i <= 3; i++ {
		full = measure.AppendBatch(full, srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "a", float64(i)), srvRec("p1", "b", float64(i+1))))
		if i == 1 {
			first = len(full)
		}
	}
	refused := 0
	for at := 0; at < first; at++ {
		dir := t.TempDir()
		path := filepath.Join(dir, spoolFile)
		flipped := bytes.Clone(full)
		flipped[at] ^= 0x80
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, rep, err := OpenSpool(dir)
		if err != nil {
			refused++
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "at offset ") {
				t.Fatalf("flip at %d: the refusal names neither the file nor the offset: %v", at, err)
			}
			if _, rerr := ReadSpool(dir); rerr == nil {
				t.Fatalf("flip at %d: OpenSpool refused the file but ReadSpool read it", at)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, flipped) {
				t.Fatalf("flip at %d: the refusal changed the file", at)
			}
			continue
		}
		sp.Close()
		keys := map[string]bool{}
		for _, b := range rep.Batches {
			keys[b.Key] = true
		}
		if !keys["k2"] || !keys["k3"] {
			t.Fatalf("flip at %d: acknowledged batches lost, replayed %d", at, len(rep.Batches))
		}
	}
	if refused == 0 {
		t.Fatal("no flip was refused")
	}
}

// A reopened spool keeps one batch per line: the newline that replay's
// heal cuts after the last batch comes back with the next append (or
// at Close), so the file stays the batches' encodings back to back.
func TestSpoolReopenKeepsOneBatchPerLine(t *testing.T) {
	batches := []measure.Batch{
		srvBatch("p1", "k1", 1, srvRec("p1", "a", 1)),
		srvBatch("p2", "k2", 1, srvRec("p2", "b", 2), srvRec("p2", "b", 3)),
		srvBatch("p1", "k3", 2, srvRec("p1", "c", 4)),
	}
	var want []byte
	for _, b := range batches {
		want = measure.AppendBatch(want, b)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, spoolFile)
	appendAll := func(bs ...measure.Batch) {
		t.Helper()
		sp, _, err := OpenSpool(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if err := sp.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(batches[:2]...)
	appendAll(batches[2])
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("spool after a reopen (%v):\n got %q\nwant %q", err, got, want)
	}
	appendAll() // a reopen with no append must not cost the newline either
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("spool after an idle reopen (%v):\n got %q\nwant %q", err, got, want)
	}

	_, rep, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", len(rep.Batches), len(batches))
	}
	for i, b := range rep.Batches {
		if b.Key != batches[i].Key {
			t.Fatalf("replay order broken at %d: %q", i, b.Key)
		}
	}
	recs, err := ReadSpool(dir)
	if err != nil || len(recs) != 4 {
		t.Fatalf("ReadSpool: %d records, err %v", len(recs), err)
	}
}

// FuzzSpoolReplay replays an arbitrary spool file, the collector's
// restart path. It must not panic,
// the durable prefix it reports must lie inside the file, replaying
// just that prefix (what OpenSpool heals the file to) must return the
// same batches and the same offset, and a complete batch batchAfter
// finds must start after the prefix.
func FuzzSpoolReplay(f *testing.F) {
	log, err := os.ReadFile(filepath.Join("testdata/spool_322fcc5", spoolFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)/2])
	flipped := bytes.Clone(log)
	flipped[len(log)/3] ^= 0x80
	f.Add(flipped)
	f.Add([]byte("\n\n{}\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		batches, good := replaySpool(bytes.NewReader(log), map[string]struct{}{})
		if good < 0 || good > int64(len(log)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(log))
		}
		healed, good2 := replaySpool(bytes.NewReader(log[:good]), map[string]struct{}{})
		if good2 != good {
			t.Fatalf("healed prefix replays to offset %d, the file to %d", good2, good)
		}
		if !reflect.DeepEqual(healed, batches) {
			t.Fatalf("healed prefix replays %d batches, the file %d", len(healed), len(batches))
		}
		if at := batchAfter(bytes.NewReader(log), good, int64(len(log))); at != -1 && (at <= good || at >= int64(len(log))) {
			t.Fatalf("batch after the prefix at %d, outside (%d, %d)", at, good, len(log))
		}
	})
}
