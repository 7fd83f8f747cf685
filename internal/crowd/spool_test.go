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

// tearingFile is a segment whose next Write lands only half its bytes
// and fails, and whose heal then fails at Truncate or at Seek.
type tearingFile struct {
	segmentFile
	tear     bool
	failSeek bool // false: Truncate fails; true: Truncate works, Seek fails
}

var errInjected = errors.New("injected IO failure")

func (f *tearingFile) Write(p []byte) (int, error) {
	if !f.tear {
		return f.segmentFile.Write(p)
	}
	f.tear = false
	n, _ := f.segmentFile.Write(p[:len(p)/2])
	return n, errInjected
}

func (f *tearingFile) Truncate(size int64) error {
	if !f.failSeek {
		return errInjected
	}
	return f.segmentFile.Truncate(size)
}

func (f *tearingFile) Seek(off int64, whence int) (int64, error) {
	if f.failSeek {
		return 0, errInjected
	}
	return f.segmentFile.Seek(off, whence)
}

// A short write whose heal fails leaves torn bytes (or, after a failed
// seek, a gap) inside the segment; replay stops there. So no later
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
			sp.f = &tearingFile{segmentFile: sp.f, tear: true, failSeek: failSeek}
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

// A crash can cut the current segment at any byte. Every cut must
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

// FuzzSpoolReplay replays an arbitrary segment against the dedup keys
// of an arbitrary manifest. It must not panic, the durable prefix it
// reports must lie inside the segment, and replaying just that prefix
// (what OpenSpool heals the segment to) must return the same batches
// and the same offset.
func FuzzSpoolReplay(f *testing.F) {
	seg, err := os.ReadFile(filepath.Join("testdata/spool_322fcc5", spoolFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, []byte(nil))
	f.Add(seg[:len(seg)/2], []byte(`{"device":"d3","key":"d3/empty"}`+"\n"))
	f.Add(seg, []byte(`{"device":"sim-0000007","key":"sim-0000007/b0"}`+"\n{torn"))
	f.Add([]byte("\n\n{}\n"), []byte("\n"))
	seen := func(manifest []byte) map[string]struct{} {
		m := map[string]struct{}{}
		for _, k := range parseManifest(manifest) {
			m[k.Key] = struct{}{}
		}
		return m
	}
	f.Fuzz(func(t *testing.T, seg, manifest []byte) {
		batches, good := replaySpool(bytes.NewReader(seg), seen(manifest))
		if good < 0 || good > int64(len(seg)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(seg))
		}
		healed, good2 := replaySpool(bytes.NewReader(seg[:good]), seen(manifest))
		if good2 != good {
			t.Fatalf("healed prefix replays to offset %d, the segment to %d", good2, good)
		}
		if !reflect.DeepEqual(healed, batches) {
			t.Fatalf("healed prefix replays %d batches, the segment %d", len(healed), len(batches))
		}
	})
}
