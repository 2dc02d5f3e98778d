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
// complete, intact checkpoint or a detectable error — never a torn one. The
// payload (format version 3) is the Checkpoint's fields in a fixed order,
// integers as varints, strings length-prefixed, each time as Unix seconds,
// nanoseconds and a zone tag; the file-layout comment below lists the order.
// A file of any other version is ErrCorrupt, and the tools fall back to a
// full replay: version 1 was a gob stream, and version 2 ended in a list of
// drop spans, which serve's drop-count shedding kept and which went with it.
// So the first start after each of those upgrades replays the log once.
package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/metrics"
)

// Checkpoint is the persisted unit of recoverable state.
type Checkpoint struct {
	// LogOffset is the byte offset into the source access log up to which
	// Tail is consistent: every record before it has been pushed and every
	// session those records finalized has been written to the sink. Offsets
	// come from core's Ingest progress callback, or are the line boundary
	// serve's owner has read the live log to; either way they are
	// line-aligned, so replay can seek straight to it.
	LogOffset int64
	// SinkOffset is the size of the session output file at snapshot time,
	// after flushing. Recovery truncates the session file to this length
	// before replaying, discarding the crashed run's post-checkpoint writes
	// that replay will re-emit.
	SinkOffset int64
	// Tail is the sessionizer state at LogOffset.
	Tail core.TailSnapshot
	// LogFile indexes the (lexically ordered) multi-file input set that
	// LogOffset applies to; 0 for single-file inputs. For gzip members
	// LogOffset counts decoded bytes. The payload has a fixed field order, so
	// adding a field to Checkpoint means bumping the format version.
	LogFile int
	// LogPath is the path LogFile referred to when the checkpoint was
	// written. Recovery validates it still names the same position in the
	// resolved set — a rotated/renamed set makes the checkpoint stale
	// (degrade to full replay) instead of silently replaying the wrong
	// file. Empty skips the check.
	LogPath string
	// CutSeq is the sequence number of the last journaled expiry cut whose
	// emission is already reflected in Tail and SinkOffset. Recovery
	// re-applies only journal cuts with Seq > CutSeq during log replay,
	// keeping timed-expiry emission replayable across a crash. Zero when no
	// cut was journaled yet, which re-applies every journaled cut. Like every
	// field, it has a fixed place in the payload: adding a field means
	// bumping the format version.
	CutSeq int64
}

// ErrCorrupt reports a checkpoint file that exists but cannot be trusted:
// bad magic, another format version, truncation, CRC mismatch, an
// undecodable payload, or decoded state no writer can have meant. Callers
// must treat it as "no checkpoint" and fall back to a full replay —
// errors.Is(err, ErrCorrupt) distinguishes it from I/O failures.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")

// File layout: magic (7 bytes) + version (1 byte) + payload length (8 bytes
// LE) + CRC32-IEEE of payload (4 bytes LE) + payload. The version-3 payload,
// in order (varint = signed zigzag varint, uvarint = unsigned, string =
// uvarint length + bytes, time = varint Unix seconds + uvarint nanoseconds +
// uvarint zone tag, 0 for UTC and 1 + zigzag(offset seconds) otherwise):
//
//	LogOffset, SinkOffset, LogFile      varint ×3
//	LogPath                             string
//	CutSeq                              varint
//	Tail.Stats: Records, Malformed, Filtered, Unresolved, Users, Sessions
//	                                    varint ×6
//	len(Tail.Users)                     uvarint, then per user:
//	  User, Last                        string, time
//	  len(Entries)                      uvarint, then per entry:
//	    Page, Time                      varint, time
//
// Nothing follows the last user. Every varint is minimally encoded, so a
// payload decodes to exactly one checkpoint and re-encodes to the same bytes.
const (
	magic      = "SSRACKP"
	version    = 3
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

// Save writes ck to path atomically: the file goes to a temp file in the
// same directory, is synced to stable storage, and is renamed over path, so
// a crash or write fault mid-save leaves the previous checkpoint intact. Any
// failure removes the temp file and counts a save_error. A Writer does the
// same into an encode buffer it keeps from one save to the next.
func Save(fsys FS, path string, ck *Checkpoint) error {
	return write(fsys, path, encode(nil, ck))
}

// write puts the encoded file data at path the way Save promises.
func write(fsys FS, path string, data []byte) (err error) {
	defer func() {
		if err != nil {
			metricSaveErrors.Inc()
		} else {
			metricSaves.Inc()
		}
	}()
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
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
// any integrity check — header, length, CRC, payload decoding, or a position
// no writer can have meant — and the decoded checkpoint otherwise.
func Load(fsys FS, path string) (*Checkpoint, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := parse(data)
	if err != nil {
		metricCorrupt.Inc()
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	metricLoads.Inc()
	return ck, nil
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

// Position decides whether ck can resume the input set paths — the resolved,
// ordered files a run reads — with a session file that holds sinkSize bytes.
// It returns where in the set to resume, or a non-empty reason to replay the
// set from its start. A checkpoint without LogPath places itself only in a
// one-file set; otherwise the recorded path must still sit at the recorded
// index, so a rotated or renamed set replays instead of resuming in the wrong
// file. A plain file's offset must lie within the file; a gzip member's
// counts decoded bytes, so the decoder checks it as it discards up to it.
// The session file must reach SinkOffset, where the resume truncates it.
func (ck *Checkpoint) Position(paths []string, sinkSize int64) (clf.FilePos, string) {
	if ck.LogFile < 0 || ck.LogFile >= len(paths) {
		return clf.FilePos{}, fmt.Sprintf("checkpoint file index %d outside the %d-file input set", ck.LogFile, len(paths))
	}
	target := paths[ck.LogFile]
	switch {
	case ck.LogPath == "" && len(paths) > 1:
		return clf.FilePos{}, "single-file checkpoint cannot place itself in a multi-file set"
	case ck.LogPath != "" && ck.LogPath != target:
		return clf.FilePos{}, fmt.Sprintf("checkpoint was at %s, input set now has %s there", ck.LogPath, target)
	case ck.SinkOffset > sinkSize:
		return clf.FilePos{}, fmt.Sprintf("checkpoint is at byte %d of a %d-byte session file", ck.SinkOffset, sinkSize)
	}
	if !clf.IsGzipFile(target) {
		fi, err := os.Stat(target)
		if err != nil {
			return clf.FilePos{}, fmt.Sprintf("stat %s: %v", target, err)
		}
		if ck.LogOffset > fi.Size() {
			return clf.FilePos{}, fmt.Sprintf("checkpoint is at byte %d of the %d-byte %s", ck.LogOffset, fi.Size(), target)
		}
	}
	return clf.FilePos{File: ck.LogFile, Offset: ck.LogOffset}, ""
}
