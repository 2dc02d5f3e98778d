package session

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartsra/internal/webgraph"
)

// This file implements the line-oriented text format cmd/simgen and
// cmd/sessionize emit and cmd/score consumes:
//
//	<user>:[<page> <page> ...]
//
// e.g. "10.0.0.7:[3 14 15]". It is the Session.String format. Timestamps
// are not part of the format: the §5.1 accuracy comparison is purely over
// page sequences, and files stay diffable. Parsed sessions carry synthetic
// strictly-increasing timestamps so they remain usable with code that
// expects ordered entries.

// ParseLine parses one session line. The last ':' before the bracket
// separates user from pages, so user names may themselves contain colons.
func ParseLine(line string) (Session, error) {
	trimmed := strings.TrimSpace(line)
	open := strings.IndexByte(trimmed, '[')
	if open < 1 || !strings.HasSuffix(trimmed, "]") {
		return Session{}, fmt.Errorf("session: malformed line %q (want user:[p1 p2 ...])", line)
	}
	if trimmed[open-1] != ':' {
		return Session{}, fmt.Errorf("session: missing ':' before '[' in %q", line)
	}
	s := Session{User: trimmed[:open-1]}
	body := trimmed[open+1 : len(trimmed)-1]
	if strings.TrimSpace(body) == "" {
		return s, nil
	}
	base := time.Unix(0, 0).UTC()
	for i, f := range strings.Fields(body) {
		id, err := strconv.Atoi(f)
		if err != nil || id < 0 {
			return Session{}, fmt.Errorf("session: bad page id %q in %q", f, line)
		}
		s.Entries = append(s.Entries, Entry{
			Page: webgraph.PageID(id),
			Time: base.Add(time.Duration(i) * time.Second),
		})
	}
	return s, nil
}

// ReadAll parses a session file (one session per line; blank lines and
// #-comments are skipped).
func ReadAll(r io.Reader) ([]Session, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var out []Session
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("session: read: %w", err)
	}
	return out, nil
}

// encodeBufs recycles WriteAll's encode buffers: every sink in the tree
// writes through WriteAll, once per finalized batch, so the buffer is the
// one allocation a write would otherwise repeat.
var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, encodeChunk+1024)
	return &b
}}

// encodeChunk is how much encoded text WriteAll gathers before a Write:
// large enough that a file sink sees few system calls, small enough to stay
// in cache while it is being filled.
const encodeChunk = 32 << 10

// WriteAll writes sessions in the text format, one per line. Sessions are
// encoded into a reused buffer and handed to w in chunks of about
// encodeChunk bytes, so w needs no buffering of its own for throughput and
// nothing is retained from sessions once WriteAll returns. The first Write
// error (a short write included) ends the call; what w took of the chunk in
// flight is then a torn tail the caller must discard.
func WriteAll(w io.Writer, sessions []Session) error {
	bp := encodeBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	for i := range sessions {
		buf = append(sessions[i].AppendText(buf), '\n')
		if len(buf) >= encodeChunk {
			if _, err = w.Write(buf); err != nil {
				break
			}
			buf = buf[:0]
		}
	}
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	*bp = buf[:0]
	encodeBufs.Put(bp)
	if err != nil {
		return fmt.Errorf("session: write: %w", err)
	}
	return nil
}
