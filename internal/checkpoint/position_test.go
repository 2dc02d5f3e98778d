package checkpoint_test

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
)

// TestPositionDecidesResume: the one resume check sessionize and serve both
// call, one row per reason it refuses a checkpoint or accepts it.
func TestPositionDecidesResume(t *testing.T) {
	dir := t.TempDir()
	line := `10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "GET /P1.html HTTP/1.1" 200 100` + "\n"
	plain := strings.Repeat(line, 4)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(strings.Repeat(line, 400)))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	set := []string{filepath.Join(dir, "access.log.0"), filepath.Join(dir, "access.log.1.gz"), filepath.Join(dir, "access.log.2")}
	for path, data := range map[string][]byte{set[0]: []byte(plain), set[1]: gz.Bytes(), set[2]: []byte(plain)} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	size := int64(len(plain))
	const sink = 1000 // bytes in the session file
	for _, c := range []struct {
		name  string
		ck    checkpoint.Checkpoint
		paths []string
		why   string // "" accepts at the checkpoint's position
	}{
		{"file index past the set", checkpoint.Checkpoint{LogFile: 3, LogPath: set[2]}, set, "file index 3 outside the 3-file input set"},
		{"negative file index", checkpoint.Checkpoint{LogFile: -1}, set, "file index -1 outside"},
		{"path moved to another index", checkpoint.Checkpoint{LogFile: 0, LogPath: set[1]}, set, "input set now has " + set[0] + " there"},
		{"pathless in a multi-file set", checkpoint.Checkpoint{LogOffset: 10}, set, "cannot place itself in a multi-file set"},
		{"plain offset past EOF", checkpoint.Checkpoint{LogFile: 2, LogPath: set[2], LogOffset: size + 1}, set, "of the " + strconv.FormatInt(size, 10) + "-byte"},
		{"plain offset at EOF", checkpoint.Checkpoint{LogFile: 2, LogPath: set[2], LogOffset: size, SinkOffset: sink}, set, ""},
		{"gzip offset handed to the decoder", checkpoint.Checkpoint{LogFile: 1, LogPath: set[1], LogOffset: int64(gz.Len()) * 10}, set, ""},
		{"session file shorter than SinkOffset", checkpoint.Checkpoint{LogFile: 1, LogPath: set[1], SinkOffset: sink + 1}, set, "byte 1001 of a 1000-byte session file"},
		{"serve's one-file set", checkpoint.Checkpoint{LogPath: set[0], LogOffset: size / 2, SinkOffset: sink}, set[:1], ""},
		{"serve's one-file set, pathless", checkpoint.Checkpoint{LogOffset: size}, set[:1], ""},
		{"serve's log rotated under it", checkpoint.Checkpoint{LogPath: set[2], LogOffset: 1}, set[:1], "was at " + set[2]},
	} {
		pos, why := c.ck.Position(c.paths, sink)
		switch {
		case c.why == "" && (why != "" || pos != (clf.FilePos{File: c.ck.LogFile, Offset: c.ck.LogOffset})):
			t.Errorf("%s: Position = %+v, %q; want it accepted at file %d byte %d", c.name, pos, why, c.ck.LogFile, c.ck.LogOffset)
		case c.why != "" && !strings.Contains(why, c.why):
			t.Errorf("%s: Position gives reason %q, want one containing %q", c.name, why, c.why)
		}
	}
}
