package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// encode lays ck out as a complete checkpoint file in buf's storage: the
// header is reserved first, the payload appended behind it, and the header
// filled in place, so the payload is never copied.
func encode(buf []byte, ck *Checkpoint) []byte {
	buf = append(buf[:0], make([]byte, headerSize)...)
	return seal(appendPayload(buf, ck))
}

// seal fills the reserved header of buf with the magic, the version, and the
// length and CRC of the payload behind it.
func seal(buf []byte) []byte {
	payload := buf[headerSize:]
	copy(buf, magic)
	buf[len(magic)] = version
	binary.LittleEndian.PutUint64(buf[len(magic)+1:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(magic)+9:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendPayload appends the version-3 payload: the fields in the order the
// file-layout comment in checkpoint.go lists them.
func appendPayload(b []byte, ck *Checkpoint) []byte {
	b = binary.AppendVarint(b, ck.LogOffset)
	b = binary.AppendVarint(b, ck.SinkOffset)
	b = binary.AppendVarint(b, int64(ck.LogFile))
	b = appendString(b, ck.LogPath)
	b = binary.AppendVarint(b, ck.CutSeq)
	s := &ck.Tail.Stats
	for _, n := range [...]int{s.Records, s.Malformed, s.Filtered, s.Unresolved, s.Users, s.Sessions} {
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(ck.Tail.Users)))
	for i := range ck.Tail.Users {
		u := &ck.Tail.Users[i]
		b = appendString(b, u.User)
		b = appendTime(b, u.Last)
		b = binary.AppendUvarint(b, uint64(len(u.Entries)))
		for _, e := range u.Entries {
			b = binary.AppendVarint(b, int64(e.Page))
			b = appendTime(b, e.Time)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendTime stores t as Unix seconds, nanoseconds and a zone tag: 0 for UTC,
// otherwise 1 + the zigzagged offset in seconds. The zone's name is not kept;
// decoding gives the offset back the way time.Parse and Time.UnmarshalBinary
// do (see decoder.time).
func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
	if t.Location() == time.UTC {
		return append(b, 0)
	}
	_, off := t.Zone()
	return binary.AppendUvarint(b, 1+zigzag(int64(off)))
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Smallest encodings of the repeated elements, which bound every count by the
// bytes left behind it: a user is an empty name, a time and a zero count; an
// entry a page and a time; a time three one-byte varints.
const (
	minTime  = 3
	minUser  = 1 + minTime + 1
	minEntry = 1 + minTime
)

// decoder reads a payload front to back. The first failure is kept and every
// later read returns zero, so decodePayload checks once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// uvarint reads a minimally encoded uvarint; a padded one (a trailing 0x00
// group) would decode to the same value and re-encode to different bytes, so
// it is refused.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad varint at %d bytes from the end", len(d.b))
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

// count reads an element count and refuses one the remaining bytes cannot
// hold at size bytes per element, so no length in the file can make the
// decoder allocate more than the file's own size suggests.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d with %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// time reverses appendTime. A non-UTC offset comes back as time.Local when
// the local zone has that offset at that instant, otherwise in clf's unnamed
// fixed zone for it — the rule time.Parse and Time.UnmarshalBinary use, and
// the Location clf's parser gives the same offset.
func (d *decoder) time() time.Time {
	sec, nsec, tag := d.varint(), d.uvarint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail("nanoseconds %d", nsec)
	}
	if d.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if tag == 0 {
		return t.UTC()
	}
	off := unzigzag(tag - 1)
	if _, local := t.Zone(); int64(local) == off {
		return t
	}
	return t.In(clf.FixedZone(int(off)))
}

// decodePayload reverses appendPayload. Entries are carved out of shared
// blocks rather than allocated user by user; Restore copies them anyway.
func decodePayload(payload []byte) (*Checkpoint, error) {
	d := &decoder{b: payload}
	ck := &Checkpoint{
		LogOffset:  d.varint(),
		SinkOffset: d.varint(),
		LogFile:    int(d.varint()),
		LogPath:    d.string(),
		CutSeq:     d.varint(),
	}
	s := &ck.Tail.Stats
	for _, n := range [...]*int{&s.Records, &s.Malformed, &s.Filtered, &s.Unresolved, &s.Users, &s.Sessions} {
		*n = int(d.varint())
	}
	if n := d.count(minUser); n > 0 {
		ck.Tail.Users = make([]core.UserState, n)
	}
	var block []session.Entry
	for i := range ck.Tail.Users {
		u := &ck.Tail.Users[i]
		u.User = d.string()
		u.Last = d.time()
		n := d.count(minEntry)
		if n == 0 {
			continue
		}
		if cap(block)-len(block) < n {
			block = make([]session.Entry, 0, max(n, min(4096, len(d.b)/minEntry)))
		}
		u.Entries = block[len(block) : len(block)+n : len(block)+n]
		block = block[:len(block)+n]
		for j := range u.Entries {
			page := d.varint()
			if int64(webgraph.PageID(page)) != page {
				d.fail("page %d", page)
			}
			u.Entries[j] = session.Entry{Page: webgraph.PageID(page), Time: d.time()}
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return ck, nil
}

// validate rejects a decoded checkpoint no writer can have meant: negative
// positions.
func (ck *Checkpoint) validate() error {
	if ck.LogOffset < 0 || ck.SinkOffset < 0 || ck.LogFile < 0 || ck.CutSeq < 0 {
		return fmt.Errorf("negative position (log=%d sink=%d file=%d cutseq=%d)",
			ck.LogOffset, ck.SinkOffset, ck.LogFile, ck.CutSeq)
	}
	return nil
}

// parse verifies a whole checkpoint file and decodes it.
func parse(data []byte) (*Checkpoint, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%d bytes, header needs %d", len(data), headerSize)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:len(magic)])
	}
	if v := data[len(magic)]; v != version {
		return nil, fmt.Errorf("format version %d, this build reads only %d", v, version)
	}
	n := binary.LittleEndian.Uint64(data[len(magic)+1:])
	sum := binary.LittleEndian.Uint32(data[len(magic)+9:])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("CRC %08x, want %08x", got, sum)
	}
	ck, err := decodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}
