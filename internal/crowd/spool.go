package crowd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/measure"
)

// The spool is the collector server's durable store: every accepted
// batch is appended in the batch wire format (measure.AppendBatch) to
// one file, DIR/batches.jsonl, so the log is simultaneously the dedup
// journal (keys replay with the batches) and the dataset (records
// replay in arrival order).
//
// A crash can tear only the tail: replay stops at the last complete
// batch, truncates the rest, and the sender's retry (same idempotency
// key) redelivers what was lost. Bad bytes with a complete batch after
// them are not a torn tail but a fault in the middle of the file;
// truncating there would drop acknowledged batches, so the spool
// refuses to open instead and leaves the file as it is. Delivery is
// at-least-once; the spool is exactly-once after replay dedup.

const spoolFile = "batches.jsonl"

// SpoolReplay is what OpenSpool recovered from disk.
type SpoolReplay struct {
	// Batches are every complete batch in append order, deduplicated
	// by idempotency key.
	Batches []measure.Batch
}

// appendFile is what Append needs of the spool file. *os.File is the
// only implementation outside tests, which inject write, truncate and
// seek failures through it.
type appendFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Close() error
}

// Spool is an append-only batch log rooted at a directory.
type Spool struct {
	mu    sync.Mutex
	f     appendFile // nil after Close
	fsize int64
	// sep is set while the file ends at a batch's closing brace without
	// the newline after it — replay heals to the brace — so the next
	// append (or Close) writes that newline first.
	sep bool
	// broken is set when a failed append could not be healed: the file
	// may hold torn bytes, and a batch appended after them would be
	// lost at the next replay, so every later Append fails.
	broken error
}

// checkLayout refuses a directory in a layout that only removed code
// wrote. Opening one as a flat spool would start empty or partial and
// forget dedup keys, so each refusal names the fix instead.
func checkLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	flat, sharded, segmented, compacted := false, false, false, false
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			sharded = sharded || strings.HasPrefix(name, "shard-")
		case name == spoolFile:
			flat = true
		case name == "compacted.keys":
			compacted = true
		case strings.HasPrefix(name, "batches-") && strings.HasSuffix(name, ".jsonl"):
			segmented = true
		}
	}
	switch {
	case segmented:
		return fmt.Errorf("%[1]s holds batches-NNNNNN.jsonl segments (written by the removed segment rotation); "+
			"merge them into one file after a clean shutdown: "+
			"cat %[1]s/batches-*.jsonl >> %[1]s/%[2]s && rm %[1]s/batches-*.jsonl", dir, spoolFile)
	case compacted:
		return fmt.Errorf("%s holds compacted.keys (written by the removed Spool.Compact): "+
			"the dedup keys in it no longer replay; remove %s to open the spool, "+
			"accepting that a redelivery of one of those batches would count again",
			dir, filepath.Join(dir, "compacted.keys"))
	case sharded && !flat:
		return fmt.Errorf("%[1]s holds only shard-NNN/ spools (written by the removed collectord -shards N); "+
			"merge them into one flat spool after a clean shutdown: "+
			"cat %[1]s/shard-*/batches*.jsonl >> %[1]s/%[2]s", dir, spoolFile)
	}
	return nil
}

// OpenSpool opens (creating if needed) the spool in dir and replays
// it: every complete batch, in append order, deduplicated by
// idempotency key. A torn tail — the residue of a crashed append — is
// truncated away so later appends produce a clean log; undecodable
// bytes with a complete batch after them are an error that names the
// file and the offset, and the file is left untouched.
func OpenSpool(dir string) (*Spool, SpoolReplay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool dir: %w", err)
	}
	if err := checkLayout(dir); err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool open: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, spoolFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool open: %w", err)
	}
	batches, good, err := replayFile(f, make(map[string]struct{}))
	if err == nil {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool open: %w", err)
	}
	return &Spool{f: f, fsize: good, sep: good > 0}, SpoolReplay{Batches: batches}, nil
}

// replayFile replays a whole spool file (see replaySpool) and tells a
// torn tail from a fault in the middle: if a complete batch decodes on
// a line after the durable prefix, truncating to that prefix would drop
// acknowledged batches, so it is an error instead.
func replayFile(f *os.File, seen map[string]struct{}) ([]measure.Batch, int64, error) {
	batches, good := replaySpool(f, seen)
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if at := batchAfter(f, good, fi.Size()); at >= 0 {
		return nil, 0, fmt.Errorf("%s: bytes at offset %d do not decode, but a complete batch starts at offset %d after them; "+
			"refusing to truncate acknowledged batches", f.Name(), good, at)
	}
	return batches, good, nil
}

// replaySpool reads complete batches from a spool file, skipping keys
// already in seen (and adding new ones to it), and reports the byte
// offset of the durable prefix: the end of the last complete batch,
// its closing brace. A decode error ends the replay rather than
// failing it; batchAfter decides whether what follows is a torn tail.
func replaySpool(r io.Reader, seen map[string]struct{}) ([]measure.Batch, int64) {
	dec := measure.NewBatchDecoder(r)
	var batches []measure.Batch
	var off int64
	for {
		b, err := dec.Next()
		if err != nil {
			// io.EOF is the clean end; anything else is bad bytes —
			// keep the durable prefix either way.
			return batches, off
		}
		off = dec.InputOffset()
		if _, dup := seen[b.Key]; dup {
			continue
		}
		seen[b.Key] = struct{}{}
		batches = append(batches, b)
	}
}

// batchAfter returns the offset of the first line starting after off
// at which a complete batch decodes, or -1 when none does — the bytes
// from off to size are then a torn tail.
func batchAfter(r io.ReaderAt, off, size int64) int64 {
	lines := bufio.NewReader(io.NewSectionReader(r, off, size-off))
	pos := off
	for {
		line, err := lines.ReadSlice('\n')
		pos += int64(len(line))
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return -1
		}
		if _, err := measure.NewBatchDecoder(io.NewSectionReader(r, pos, size-pos)).Next(); err == nil {
			return pos
		}
	}
}

// Append writes one batch to the log. The batch is encoded in memory
// and lands in one file write, and a failed or short write truncates
// the file back to its pre-append length — the log never holds a
// partial entry in the middle, so the "at most one partial batch, at
// the tail, from a crash" replay contract survives IO errors too. If
// that heal fails, the file is closed and every later Append returns
// an error, so no batch is acknowledged after torn bytes. Durability
// is the OS page cache's (no fsync per batch — see DESIGN.md for the
// crash window contract).
func (s *Spool) Append(b measure.Batch) error {
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteByte('\n') // the separator, written only when sep is set
	buf.Write(measure.AppendBatch(buf.AvailableBuffer(), b))
	enc := buf.Bytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if s.f == nil {
		return fmt.Errorf("crowd: append on closed spool")
	}
	if !s.sep {
		enc = enc[1:]
	}
	if _, err := s.f.Write(enc); err != nil {
		// Heal in place: drop whatever partial bytes made it out so the
		// next append starts at a batch boundary. The batch's key was
		// never committed; the sender's retry redelivers it.
		herr := s.f.Truncate(s.fsize)
		if herr == nil {
			_, herr = s.f.Seek(s.fsize, io.SeekStart)
		}
		if herr != nil {
			s.f.Close()
			s.f = nil
			s.broken = fmt.Errorf("crowd: spool closed after an append it could not heal: %w", herr)
		}
		return errors.Join(fmt.Errorf("crowd: spool append: %w", err), s.broken)
	}
	s.fsize += int64(len(enc))
	s.sep = false
	return nil
}

// SpoolStats is the spool's on-disk footprint.
type SpoolStats struct {
	Bytes int64 // size of the spool file
}

// Stats reports the spool's size.
func (s *Spool) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpoolStats{Bytes: s.fsize}
}

// Close writes the newline a reopened spool still owes its last batch
// and closes the file, so a cleanly closed spool is its batches'
// encodings, one after another.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if s.sep {
		_, err = s.f.Write([]byte{'\n'})
	}
	err = errors.Join(err, s.f.Close())
	s.f = nil
	return err
}

// ReadSpool loads the deduplicated records from a spool directory
// without opening it for writing — the `crowdstudy -spool` path for
// analysing a collectord's dataset offline. Records keep arrival order;
// a torn tail is skipped, and a directory OpenSpool would refuse is an
// error here too. Empty-device records are stamped with their batch's
// device, mirroring what the server did (or would have done) at accept
// time.
func ReadSpool(dir string) ([]measure.Record, error) {
	if err := checkLayout(dir); err != nil {
		return nil, fmt.Errorf("crowd: spool read: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, spoolFile))
	if err != nil {
		return nil, fmt.Errorf("crowd: spool read: %w", err)
	}
	defer f.Close()
	batches, _, err := replayFile(f, make(map[string]struct{}))
	if err != nil {
		return nil, fmt.Errorf("crowd: spool read: %w", err)
	}
	var recs []measure.Record
	for _, b := range batches {
		recs = append(recs, stampRecords(b)...)
	}
	return recs, nil
}

// stampRecords applies the batch's device attribution to records that
// arrived without one, returning a copy.
func stampRecords(b measure.Batch) []measure.Record {
	out := make([]measure.Record, len(b.Records))
	for i, r := range b.Records {
		if r.Device == "" {
			r.Device = b.Device
		}
		out[i] = r
	}
	return out
}
