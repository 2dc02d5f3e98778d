// Package checkpoint persists the live sessionizer's recoverable state so a
// crashed process can resume without losing or duplicating sessions. A
// checkpoint pairs a core.TailSnapshot (every open burst plus the stage
// counters) with two byte offsets: how far into the source access log the
// snapshot is consistent, and how long the session output file was at that
// moment. Recovery restores the snapshot, truncates the session file to
// SinkOffset, and replays the log from LogOffset — the replayed suffix
// re-emits exactly the sessions the crash cut off.
//
// Files are written atomically (temp file, fsync, rename) with a versioned
// magic header and a CRC32 over the payload, so a reader either gets a
// complete, intact checkpoint or a detectable error — never a torn one.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"smartsra/internal/core"
	"smartsra/internal/metrics"
)

// Checkpoint is the persisted unit of recoverable state.
type Checkpoint struct {
	// LogOffset is the byte offset into the source access log up to which
	// Tail is consistent: every record before it has been pushed and every
	// session those records finalized has been written to the sink. Offsets
	// come from core's Ingest progress callback and are line-aligned, so
	// replay can seek straight to it.
	LogOffset int64
	// SinkOffset is the size of the session output file at snapshot time,
	// after flushing. Recovery truncates the session file to this length
	// before replaying, discarding the crashed run's post-checkpoint writes
	// that replay will re-emit.
	SinkOffset int64
	// Tail is the sessionizer state at LogOffset.
	Tail core.TailSnapshot
	// LogFile indexes the (lexically ordered) multi-file input set that
	// LogOffset applies to; 0 for single-file inputs, so checkpoints written
	// before multi-file support decode with the correct meaning. For gzip
	// members LogOffset counts decoded bytes. Gob tolerates the added
	// fields, so the file format version is unchanged.
	LogFile int
	// LogPath is the path LogFile referred to when the checkpoint was
	// written. Recovery validates it still names the same position in the
	// resolved set — a rotated/renamed set makes the checkpoint stale
	// (degrade to full replay) instead of silently replaying the wrong
	// file. Empty in pre-multi-file checkpoints, which skips the check.
	LogPath string
	// CutSeq is the sequence number of the last journaled expiry cut whose
	// emission is already reflected in Tail and SinkOffset. Recovery
	// re-applies only journal cuts with Seq > CutSeq during log replay,
	// keeping timed-expiry emission replayable across a crash. Zero in
	// checkpoints written before expiry cuts existed (gob tolerates the
	// added field), which re-applies every journaled cut — correct, since
	// those runs journaled none.
	CutSeq int64
	// DropSpans are byte ranges of the access log that were served and
	// logged but dropped from the sessionizer under drop-count shedding and
	// not yet reconciled at snapshot time. Recovery restores them as the
	// pending-backfill ledger so a crash cannot leak dropped records past
	// the conservation accounting.
	DropSpans []DropSpan
}

// DropSpan is a half-open byte range [Start, End) of the access log holding
// Records consecutive records that were dropped from the live tail under
// drop-count shedding. Spans are coalesced by the writer (adjacent drops
// merge), and reconciliation re-reads the range and pushes the records back
// through the ingest queue.
type DropSpan struct {
	Start   int64
	End     int64
	Records int64
}

// ErrCorrupt reports a checkpoint file that exists but cannot be trusted:
// bad magic, unknown version, truncation, CRC mismatch, or an undecodable
// payload. Callers must treat it as "no checkpoint" and fall back to a full
// replay — errors.Is(err, ErrCorrupt) distinguishes it from I/O failures.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")

// File layout: magic (7 bytes) + version (1 byte) + payload length (8 bytes
// LE) + CRC32-IEEE of payload (4 bytes LE) + gob payload.
const (
	magic      = "SSRACKP"
	version    = 1
	headerSize = len(magic) + 1 + 8 + 4
)

// Checkpoint I/O outcomes, labeled for /debug/metrics: saves and save
// failures show checkpointing health; corrupt-load counts show how often
// recovery had to fall back to a full replay.
var (
	metricSaves = metrics.GetCounter(metrics.WithLabels(
		"checkpoint.events", "kind", "save"))
	metricSaveErrors = metrics.GetCounter(metrics.WithLabels(
		"checkpoint.events", "kind", "save_error"))
	metricLoads = metrics.GetCounter(metrics.WithLabels(
		"checkpoint.events", "kind", "load"))
	metricCorrupt = metrics.GetCounter(metrics.WithLabels(
		"checkpoint.events", "kind", "corrupt"))
)

// Save writes ck to path atomically: the payload goes to a temp file in the
// same directory, is synced to stable storage, and is renamed over path, so
// a crash or write fault mid-save leaves the previous checkpoint intact. Any
// failure removes the temp file and counts a save_error.
func Save(fsys FS, path string, ck *Checkpoint) (err error) {
	defer func() {
		if err != nil {
			metricSaveErrors.Inc()
		} else {
			metricSaves.Inc()
		}
	}()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, headerSize+payload.Len())
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload.Bytes()))
	buf = append(buf, payload.Bytes()...)

	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// Load reads and verifies the checkpoint at path. It returns fs.ErrNotExist
// when no checkpoint exists, an ErrCorrupt-wrapped error when the file fails
// any integrity check, and the decoded checkpoint otherwise.
func Load(fsys FS, path string) (*Checkpoint, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:len(magic)]) != magic {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	if v := data[len(magic)]; v != version {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, version)
	}
	n := binary.LittleEndian.Uint64(data[len(magic)+1:])
	sum := binary.LittleEndian.Uint32(data[len(magic)+9:])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: CRC %08x, want %08x", ErrCorrupt, got, sum)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if ck.LogOffset < 0 || ck.SinkOffset < 0 {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: negative offset (log=%d sink=%d)", ErrCorrupt, ck.LogOffset, ck.SinkOffset)
	}
	metricLoads.Inc()
	return &ck, nil
}

// Resume is Load for startup paths: it folds the three cases recovery cares
// about into (checkpoint, reason). A missing file is a clean cold start
// (nil, ""); a corrupt one is a cold start with a reason to log; only real
// I/O errors are returned as errors.
func Resume(fsys FS, path string) (ck *Checkpoint, reason string, err error) {
	ck, err = Load(fsys, path)
	switch {
	case err == nil:
		return ck, "", nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, "", nil
	case errors.Is(err, ErrCorrupt):
		return nil, err.Error(), nil
	default:
		return nil, "", err
	}
}
