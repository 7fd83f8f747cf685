package crowd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/measure"
)

// The spool is the collector server's durable store: every accepted
// batch is appended in the batch wire format (measure.AppendBatch), so
// the log is simultaneously the dedup journal (keys replay with the
// batches) and the dataset (records replay in arrival order).
//
// The log is a sequence of size-capped segment files rather than one
// unbounded file: appends go to the current (highest-numbered) segment
// and roll to a fresh one when it would exceed SegmentBytes. Sealed
// segments are immutable, which gives a long-lived collector two
// things a single file cannot: Compact() can drop sealed segments
// (preserving their dedup keys in a manifest) so restart replay cost
// stops growing with lifetime ingest, and a crash can corrupt at most
// the tail of the current segment — replay stops there, truncates back
// to the last complete batch, and the sender's retry (same idempotency
// key) redelivers what was lost. Delivery is at-least-once; the spool
// is exactly-once after replay dedup.

// Segment file layout inside a spool dir. Segment 0 keeps the legacy
// single-file name so pre-rotation spools replay unchanged.
const (
	spoolFile    = "batches.jsonl"
	spoolSegFmt  = "batches-%06d.jsonl"
	manifestFile = "compacted.keys"
)

// DefaultSegmentBytes caps one segment file at 64 MiB.
const DefaultSegmentBytes = 64 << 20

// SpoolOptions tunes a spool.
type SpoolOptions struct {
	// SegmentBytes caps one segment file; an append that would push the
	// current segment past it rolls to a new segment first. <= 0
	// selects DefaultSegmentBytes.
	SegmentBytes int64
}

// SpoolReplay is what OpenSpool recovered from disk.
type SpoolReplay struct {
	// Batches are every complete batch across all segments in append
	// order, deduplicated by idempotency key.
	Batches []measure.Batch
	// CompactedKeys are dedup keys preserved from segments a previous
	// Compact dropped: their batches no longer replay, but redelivery
	// of those keys must still be absorbed.
	CompactedKeys []SpoolKey
	// Segments is the number of segment files found on disk.
	Segments int
}

// segmentFile is what Append needs of the current segment. *os.File
// is the only implementation outside tests, which inject write,
// truncate and seek failures through it.
type segmentFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Close() error
}

// Spool is an append-only, segment-rotating batch log rooted at a
// directory.
type Spool struct {
	mu     sync.Mutex
	dir    string
	o      SpoolOptions
	f      segmentFile // current segment, nil after Close
	fsize  int64
	seg    int   // current segment index
	sealed []int // immutable earlier segments still on disk, ascending
	// broken is set when a failed append could not be healed: the
	// segment may hold torn bytes, and a batch appended after them
	// would be lost at the next replay, so every later Append fails.
	broken error
}

func segName(n int) string {
	if n == 0 {
		return spoolFile
	}
	return fmt.Sprintf(spoolSegFmt, n)
}

// listSegments returns the segment indexes present in dir, ascending.
// A dir with no segment of its own but with shard-NNN/ subdirectories
// is the layout the removed `collectord -shards N` wrote; treating it
// as an empty spool would silently forget every dedup key, so it is an
// error that names the merge.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	sharded := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			sharded = sharded || strings.HasPrefix(name, "shard-")
			continue
		}
		if name == spoolFile {
			segs = append(segs, 0)
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, spoolSegFmt, &n); err == nil && strings.HasSuffix(name, ".jsonl") && n > 0 {
			segs = append(segs, n)
		}
	}
	if len(segs) == 0 && sharded {
		return nil, fmt.Errorf("%[1]s holds only shard-NNN/ spools (written by the removed collectord -shards N); "+
			"merge them into one flat spool after a clean shutdown: "+
			"cat %[1]s/shard-*/batches*.jsonl >> %[1]s/%[2]s; cat %[1]s/shard-*/%[3]s >> %[1]s/%[3]s",
			dir, spoolFile, manifestFile)
	}
	sort.Ints(segs)
	return segs, nil
}

// SpoolKey is a dedup key preserved from a compacted segment, with the
// device attribution the server needs to seed the right ingest shard.
type SpoolKey struct {
	Device string `json:"device"`
	Key    string `json:"key"`
}

// readManifest loads the dedup keys preserved by previous Compacts.
func readManifest(dir string) ([]SpoolKey, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("crowd: spool manifest: %w", err)
	}
	return parseManifest(raw), nil
}

// parseManifest decodes a manifest: each line is one JSON-encoded
// SpoolKey (keys are sender-controlled, so they cannot be trusted to
// stay on one line raw).
func parseManifest(raw []byte) []SpoolKey {
	var keys []SpoolKey
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var k SpoolKey
		if err := json.Unmarshal(line, &k); err != nil {
			// A torn manifest tail (crash mid-Compact) loses at most the
			// keys of that Compact; the affected segments were not yet
			// deleted, so their keys replay from the segments instead.
			break
		}
		keys = append(keys, k)
	}
	return keys
}

// OpenSpool opens (creating if needed) the spool in dir with default
// options and replays it.
func OpenSpool(dir string) (*Spool, SpoolReplay, error) {
	return OpenSpoolOptions(dir, SpoolOptions{})
}

// OpenSpoolOptions opens the spool in dir and replays it: every
// complete batch across every segment, in append order, deduplicated
// by idempotency key (keys from compacted segments dedup too). A
// partial batch at the tail of the last segment — the residue of a
// crashed append — is discarded and truncated away so subsequent
// appends produce a clean log.
func OpenSpoolOptions(dir string, o SpoolOptions) (*Spool, SpoolReplay, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool dir: %w", err)
	}
	var rep SpoolReplay
	keys, err := readManifest(dir)
	if err != nil {
		return nil, SpoolReplay{}, err
	}
	rep.CompactedKeys = keys
	seen := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		seen[k.Key] = struct{}{}
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool list: %w", err)
	}
	if len(segs) == 0 {
		segs = []int{0}
	}
	rep.Segments = len(segs)

	s := &Spool{dir: dir, o: o, seg: segs[len(segs)-1], sealed: segs[:len(segs)-1]}
	for i, n := range segs {
		last := i == len(segs)-1
		f, err := os.OpenFile(filepath.Join(dir, segName(n)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.closeSilently()
			return nil, SpoolReplay{}, fmt.Errorf("crowd: spool open: %w", err)
		}
		batches, goodOff := replaySpool(f, seen)
		rep.Batches = append(rep.Batches, batches...)
		if !last {
			// Sealed segments are immutable; a bad tail here (it should
			// not happen — only a crash can tear a tail, and crashes tear
			// the then-current segment, which is the last) keeps the good
			// prefix and moves on.
			f.Close()
			continue
		}
		// The current segment heals in place: truncate the torn tail so
		// appends resume at a batch boundary.
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, SpoolReplay{}, fmt.Errorf("crowd: spool truncate: %w", err)
		}
		if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
			f.Close()
			return nil, SpoolReplay{}, fmt.Errorf("crowd: spool seek: %w", err)
		}
		s.f, s.fsize = f, goodOff
	}
	return s, rep, nil
}

func (s *Spool) closeSilently() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// replaySpool reads complete batches from one segment, skipping keys
// already in seen (and adding new ones to it), and reports the byte
// offset of the durable prefix. Decode errors — truncation or tail
// corruption — end the replay rather than failing it: everything
// before the bad entry is intact and served; the bad entry's sender
// retries with the same key.
func replaySpool(r io.Reader, seen map[string]struct{}) ([]measure.Batch, int64) {
	dec := measure.NewBatchDecoder(r)
	var batches []measure.Batch
	var off int64
	for {
		b, err := dec.Next()
		if err != nil {
			// io.EOF is the clean end; anything else is a partial or
			// corrupt tail — keep the durable prefix either way.
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

// Append writes one batch to the log, rolling to a new segment first
// when the current one is full. The batch is encoded in memory and
// lands in one file write, and a failed or short write truncates the
// segment back to its pre-append length — the log never holds a
// partial entry in the middle, so the "at most one partial batch, at
// the tail, from a crash" replay contract survives IO errors too. If
// that heal fails, the segment is closed and every later Append
// returns an error, so no batch is acknowledged after torn bytes.
// Durability is the OS page cache's (no fsync per batch — see DESIGN.md
// for the crash window contract).
func (s *Spool) Append(b measure.Batch) error {
	buf := getBuf()
	defer putBuf(buf)
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
	if s.fsize > 0 && s.fsize+int64(len(enc)) > s.o.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
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
	return nil
}

// rotateLocked seals the current segment and opens the next one.
func (s *Spool) rotateLocked() error {
	next, err := os.OpenFile(filepath.Join(s.dir, segName(s.seg+1)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("crowd: spool rotate: %w", err)
	}
	s.f.Close()
	s.sealed = append(s.sealed, s.seg)
	s.seg++
	s.f, s.fsize = next, 0
	return nil
}

// Segments reports how many segment files the spool currently spans
// (sealed plus current).
func (s *Spool) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed) + 1
}

// SpoolStats is the spool's on-disk footprint.
type SpoolStats struct {
	Segments int   // segment files (sealed + current)
	Bytes    int64 // total bytes across all segments
}

// Stats reports the spool's segment count and total size. The current
// segment's size is tracked; sealed segments (immutable) are stat'd —
// a per-scrape cost of one stat per sealed segment, bounded by
// Compact.
func (s *Spool) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpoolStats{Segments: len(s.sealed) + 1, Bytes: s.fsize}
	for _, n := range s.sealed {
		if fi, err := os.Stat(filepath.Join(s.dir, segName(n))); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st
}

// Compact drops every sealed segment, first preserving its dedup keys
// in the manifest so redelivery of a compacted batch is still absorbed
// after a restart. The records in dropped segments no longer replay:
// Compact is the companion of sketch-aggregated, RetainRecords=off
// operation, where the sketches — not the raw log — are the product
// and the log is a redelivery buffer. It returns the number of
// segments dropped and keys preserved.
func (s *Spool) Compact() (segments, keys int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, 0, fmt.Errorf("crowd: compact on closed spool")
	}
	if len(s.sealed) == 0 {
		return 0, 0, nil
	}
	// Gather the sealed segments' keys by re-reading them (cheap
	// relative to how rarely compaction runs, and it keeps the spool
	// from mirroring the server's dedup map in memory).
	var preserved []SpoolKey
	for _, n := range s.sealed {
		f, err := os.Open(filepath.Join(s.dir, segName(n)))
		if err != nil {
			return 0, 0, fmt.Errorf("crowd: compact read: %w", err)
		}
		batches, _ := replaySpool(f, make(map[string]struct{}))
		f.Close()
		for _, b := range batches {
			preserved = append(preserved, SpoolKey{Device: b.Device, Key: b.Key})
		}
	}
	// Manifest first, then delete: a crash between the two leaves both
	// the manifest keys and the segments, and replay dedups the overlap.
	mf, err := os.OpenFile(filepath.Join(s.dir, manifestFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("crowd: compact manifest: %w", err)
	}
	var mb bytes.Buffer
	for _, k := range preserved {
		line, err := json.Marshal(k)
		if err != nil {
			mf.Close()
			return 0, 0, err
		}
		mb.Write(line)
		mb.WriteByte('\n')
	}
	if _, err := mf.Write(mb.Bytes()); err != nil {
		mf.Close()
		return 0, 0, fmt.Errorf("crowd: compact manifest write: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return 0, 0, fmt.Errorf("crowd: compact manifest sync: %w", err)
	}
	mf.Close()
	dropped := 0
	for _, n := range s.sealed {
		if err := os.Remove(filepath.Join(s.dir, segName(n))); err != nil {
			return dropped, len(preserved), fmt.Errorf("crowd: compact remove: %w", err)
		}
		dropped++
	}
	s.sealed = s.sealed[:0]
	return dropped, len(preserved), nil
}

// Close closes the current segment file.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// ReadSpool loads the deduplicated records from a spool directory
// without opening it for writing — the `crowdstudy -spool` path for
// analysing a collectord's dataset offline. Records keep arrival
// order across segments; records of compacted segments are gone (their
// keys only absorb redelivery). Empty-device records are stamped with
// their batch's device, mirroring what the server did (or would have
// done) at accept time.
func ReadSpool(dir string) ([]measure.Record, error) {
	keys, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		seen[k.Key] = struct{}{}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("crowd: spool read: %w", err)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("crowd: spool read: %w", os.ErrNotExist)
	}
	var recs []measure.Record
	for _, n := range segs {
		f, err := os.Open(filepath.Join(dir, segName(n)))
		if err != nil {
			return nil, fmt.Errorf("crowd: spool read: %w", err)
		}
		batches, _ := replaySpool(f, seen)
		f.Close()
		for _, b := range batches {
			recs = append(recs, stampRecords(b)...)
		}
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
