package clf

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// recordsMatch compares two Records field by field. Times must be the same
// instant with the same zone rendering (time.Parse fabricates zone Locations
// per call, so pointer equality never holds).
func recordsMatch(a, b Record) bool {
	if a.Host != b.Host || a.Ident != b.Ident || a.AuthUser != b.AuthUser ||
		a.Method != b.Method || a.URI != b.URI || a.Protocol != b.Protocol ||
		a.Status != b.Status || a.Bytes != b.Bytes ||
		a.Referer != b.Referer || a.UserAgent != b.UserAgent {
		return false
	}
	if !a.Time.Equal(b.Time) {
		return false
	}
	an, ao := a.Time.Zone()
	bn, bo := b.Time.Zone()
	return an == bn && ao == bo && a.Time.Format(TimeLayout) == b.Time.Format(TimeLayout)
}

// checkBytesEquivalence asserts ParseAnyRecordBytes behaves exactly like
// ParseAnyRecord on one line.
func checkBytesEquivalence(t *testing.T, line string) {
	t.Helper()
	wantRec, wantCombined, wantErr := ParseAnyRecord(line)
	gotRec, gotCombined, gotErr := ParseAnyRecordBytes([]byte(line))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("line %q: error mismatch: string=%v bytes=%v", line, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("line %q: error text mismatch:\nstring: %v\nbytes:  %v", line, wantErr, gotErr)
		}
		return
	}
	if wantCombined != gotCombined {
		t.Fatalf("line %q: combined flag mismatch: string=%v bytes=%v", line, wantCombined, gotCombined)
	}
	if !recordsMatch(wantRec, gotRec) {
		t.Fatalf("line %q: record mismatch:\nstring: %+v\nbytes:  %+v", line, wantRec, gotRec)
	}
}

func TestParseAnyRecordBytesMatchesString(t *testing.T) {
	lines := []string{
		sampleLine,
		combinedLine,
		sampleLine + "\r",
		sampleLine + "\r\n",
		sampleLine + ` "-" "-"`,
		`192.168.1.1 - alice [02/Jan/2006:15:04:05 -0500] "POST /login HTTP/1.0" 302 -`,
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 0`,
		`x - - [29/Feb/2004:00:00:00 +0000] "GET / HTTP/1.1" 200 0`,        // leap day
		`x - - [29/Feb/2005:00:00:00 +0000] "GET / HTTP/1.1" 200 0`,        // invalid leap day
		`x - - [31/Apr/2006:00:00:00 +0000] "GET / HTTP/1.1" 200 0`,        // day out of range
		`x - - [00/Jan/2006:00:00:00 +0000] "GET / HTTP/1.1" 200 0`,        // day zero
		`x - - [02/jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 0`,        // lowercase month (slow path)
		`x - - [02/JAN/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 0`,        // uppercase month (slow path)
		`x - - [02/Jan/2006:24:00:00 +0000] "GET / HTTP/1.1" 200 0`,        // hour out of range
		`x - - [02/Jan/2006:15:04:05 +0530] "GET / HTTP/1.1" 200 0`,        // non-local offset
		`x - - [02/Jan/2006:15:04:05 -0930] "GET / HTTP/1.1" 200 0`,        // negative half-hour offset
		`x - - [02/Jan/2006:15:04:05 +9959] "GET / HTTP/1.1" 200 0`,        // absurd offset (slow path)
		`x - - [02/Jan/2006:15:04:05+0000] "GET / HTTP/1.1" 200 0`,         // missing space in date
		`x - - [02/Jan/2006:15:04:05 +0000] "GET  HTTP/1.1" 200 0`,         // two request fields
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / X HTTP/1.1" 200 0`,      // four request fields
		`x - - [02/Jan/2006:15:04:05 +0000] " / HTTP/1.1" 200 0`,           // empty method
		`x - - [02/Jan/2006:15:04:05 +0000] "GET  /x" 200 0`,               // empty middle field
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1"  200   512  `, // extra spaces
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1"200 512`,       // no space after quote
		"x - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200\t512",   // tab separator (slow path)
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 099 512`,      // status below range
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 0200 512`,     // padded status
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 600 512`,      // status above range
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 2-0`,      // dash inside bytes
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 512 9`,    // three tail fields
		`x - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200`,          // one tail field
		`x - - [bad date] "GET / HTTP/1.1" 200 1`,
		`x - - 02/Jan/2006 "GET / HTTP/1.1" 200 1`,
		`x - -`,
		``,
		`   `,
		`just some garbage`,
		combinedLine + "\r\n",
		sampleLine + ` "ref with space" "agent with space"`,
		sampleLine + ` "" ""`,
		`x - - [02/Jan/2006:15:04:05 +0000] "GET /q"x HTTP/1.1" 200 1 "r" "a"`, // quote inside URI
	}
	for _, line := range lines {
		checkBytesEquivalence(t, line)
	}
}

// TestParseCLFTimeMatchesTimeParse sweeps timestamps (normal, leap, DST
// boundaries, many offsets) and pins the hand-rolled parser to time.Parse.
func TestParseCLFTimeMatchesTimeParse(t *testing.T) {
	stamps := []string{
		"02/Jan/2006:15:04:05 +0000",
		"02/Jan/2006:15:04:05 -0700",
		"29/Feb/2000:23:59:59 +0100",
		"28/Feb/1900:00:00:00 +0000",
		"31/Dec/9999:23:59:59 +1400",
		"01/Jan/0000:00:00:00 -0000",
		"15/Jun/2026:12:30:45 +0530",
		"15/Jun/2026:12:30:45 -0930",
		"31/Mar/2024:01:30:00 +0100",
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		tm := time.Date(1990+rng.Intn(60), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			rng.Intn(24), rng.Intn(60), rng.Intn(60), 0,
			time.FixedZone("", (rng.Intn(27)-13)*3600+rng.Intn(4)*900))
		stamps = append(stamps, tm.Format(TimeLayout))
	}
	for _, s := range stamps {
		want, wantErr := time.Parse(TimeLayout, s)
		got, ok := parseCLFTime([]byte(s))
		if wantErr != nil {
			if ok {
				t.Fatalf("stamp %q: time.Parse rejects (%v) but fast path accepts %v", s, wantErr, got)
			}
			continue
		}
		if !ok {
			continue // fast path may defer to the slow path; that is always legal
		}
		if !got.Equal(want) {
			t.Fatalf("stamp %q: instant mismatch: fast %v, time.Parse %v", s, got, want)
		}
		gn, go_ := got.Zone()
		wn, wo := want.Zone()
		if gn != wn || go_ != wo {
			t.Fatalf("stamp %q: zone mismatch: fast %q/%d, time.Parse %q/%d", s, gn, go_, wn, wo)
		}
	}
}

// TestParseCLFTimeRejectsShapes pins fallback on malformed shapes.
func TestParseCLFTimeRejectsShapes(t *testing.T) {
	bad := []string{
		"", "02/Jan/2006:15:04:05", "02/Jan/2006:15:04:05 +000", "2/Jan/2006:15:04:05 +00000",
		"02-Jan-2006:15:04:05 +0000", "02/Jan/2006 15:04:05 +0000", "02/Jan/2006:15:04:05 00000",
		"ab/Jan/2006:15:04:05 +0000", "02/Xxx/2006:15:04:05 +0000", "02/Jan/20x6:15:04:05 +0000",
	}
	for _, s := range bad {
		if _, ok := parseCLFTime([]byte(s)); ok {
			t.Errorf("parseCLFTime accepted %q", s)
		}
	}
}

func TestScannerRetainsTruncatedErrorLines(t *testing.T) {
	long := "garbage " + strings.Repeat("x", 64*1024)
	sc := NewScanner(strings.NewReader(long + "\n" + sampleLine + "\n"))
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 1 {
		t.Fatalf("scanned %d records, want 1", n)
	}
	bad, details := sc.Malformed()
	if bad != 1 || len(details) != 1 {
		t.Fatalf("malformed = %d (%d retained), want 1", bad, len(details))
	}
	if got := len(details[0].Line); got > maxRetainedLineBytes+len("...") {
		t.Errorf("retained line is %d bytes, want <= %d", got, maxRetainedLineBytes+3)
	}
	if details[0].LineNo != 1 {
		t.Errorf("LineNo = %d, want 1", details[0].LineNo)
	}
}

// synthLog builds a log mixing well-formed, combined, malformed, and blank
// lines, deterministically from seed.
func synthLog(seed int64, lines int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	base := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	for i := 0; i < lines; i++ {
		switch rng.Intn(10) {
		case 0:
			sb.WriteString("malformed junk line\n")
		case 1:
			sb.WriteString("\n")
		case 2:
			fmt.Fprintf(&sb, "10.0.0.%d - - [%s] \"GET /p/%d.html HTTP/1.1\" 200 %d \"/ref.html\" \"agent %d\"\n",
				rng.Intn(200), base.Add(time.Duration(i)*time.Second).Format(TimeLayout),
				rng.Intn(50), rng.Intn(4096), rng.Intn(5))
		default:
			fmt.Fprintf(&sb, "10.0.0.%d - - [%s] \"GET /p/%d.html HTTP/1.1\" %d %d\n",
				rng.Intn(200), base.Add(time.Duration(i)*time.Second).Format(TimeLayout),
				rng.Intn(50), 200+rng.Intn(2)*102, rng.Intn(4096))
		}
	}
	return sb.String()
}

func TestReadAllParallelMatchesReadAll(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		log := synthLog(seed, 5000)
		want, wantBad, err := ReadAll(strings.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		got, gotBad, err := streamAll(strings.NewReader(log), StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if gotBad != wantBad {
			t.Fatalf("seed %d: malformed %d, want %d", seed, gotBad, wantBad)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if !recordsMatch(got[i], want[i]) {
				t.Fatalf("seed %d: record %d differs:\n%+v\n%+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestReadAllParallelNoTrailingNewline(t *testing.T) {
	log := strings.TrimSuffix(synthLog(7, 200), "\n")
	want, wantBad, _ := ReadAll(strings.NewReader(log))
	got, gotBad, err := streamAll(strings.NewReader(log), StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || gotBad != wantBad {
		t.Fatalf("got %d/%d, want %d/%d", len(got), gotBad, len(want), wantBad)
	}
}

func TestReadAllParallelOversizedLine(t *testing.T) {
	// Skip-and-count: the over-long line becomes one malformed line on both
	// paths, and its unterminated tail at EOF does not double-count.
	huge := sampleLine + "\n" + strings.Repeat("a", maxLineBytes+2)
	seq, seqBad, seqErr := ReadAll(strings.NewReader(huge))
	par, parBad, parErr := streamAll(strings.NewReader(huge), StreamConfig{})
	if seqErr != nil || parErr != nil {
		t.Fatalf("oversized line must not abort: sequential err=%v, parallel err=%v", seqErr, parErr)
	}
	if len(seq) != 1 || len(par) != 1 {
		t.Fatalf("records: sequential %d, parallel %d, want 1", len(seq), len(par))
	}
	if seqBad != 1 || parBad != 1 {
		t.Fatalf("malformed: sequential %d, parallel %d, want 1", seqBad, parBad)
	}
}

type chunkFailReader struct {
	data []byte
	off  int
}

func (f *chunkFailReader) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, errors.New("disk on fire")
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func TestReadAllParallelPartialOnReadError(t *testing.T) {
	log := synthLog(9, 300)
	want, _, seqErr := ReadAll(&chunkFailReader{data: []byte(log)})
	got, _, parErr := streamAll(&chunkFailReader{data: []byte(log)}, StreamConfig{})
	if seqErr == nil || parErr == nil {
		t.Fatalf("want read errors, got %v / %v", seqErr, parErr)
	}
	if len(got) != len(want) {
		t.Fatalf("partial records: parallel %d, sequential %d", len(got), len(want))
	}
}

// FuzzParseAnyRecordBytes pins the byte-level fast path to the string
// reference parser: identical accept/reject decisions, identical Records
// (including timestamps and zones), identical error text — for well-formed
// and malformed input alike.
func FuzzParseAnyRecordBytes(f *testing.F) {
	f.Add(sampleLine)
	f.Add(combinedLine)
	f.Add(sampleLine + ` "-" "-"`)
	f.Add(`x - - [02/Jan/2006:15:04:05 +0530] "GET / HTTP/1.1" 200 0`)
	f.Add(`x - - [29/Feb/2005:15:04:05 +0000] "GET / HTTP/1.1" 200 -`)
	f.Add("")
	f.Add(`1.2.3.4 - - [bad date] "GET / HTTP/1.1" 200 1`)
	f.Add("a b c [02/Jan/2006:15:04:05 +0000] \"x y z\" 200\t5")
	f.Fuzz(func(t *testing.T, line string) {
		if len(line) > 1<<16 {
			return
		}
		wantRec, wantCombined, wantErr := ParseAnyRecord(line)
		gotRec, gotCombined, gotErr := ParseAnyRecordBytes([]byte(line))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch on %q: string=%v bytes=%v", line, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text mismatch on %q:\nstring: %v\nbytes:  %v", line, wantErr, gotErr)
			}
			return
		}
		if wantCombined != gotCombined {
			t.Fatalf("combined flag mismatch on %q", line)
		}
		if !recordsMatch(wantRec, gotRec) {
			t.Fatalf("record mismatch on %q:\nstring: %+v\nbytes:  %+v", line, wantRec, gotRec)
		}
	})
}
