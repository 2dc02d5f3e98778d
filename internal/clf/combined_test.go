package clf

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var combinedLine = sampleLine + ` "/p/3.html" "Mozilla/5.0 (X11; Linux)"`

// CombinedString renders the record as a combined-format line. Empty
// referer/user-agent render as "-".
func (r Record) CombinedString() string { return string(r.appendCombinedTo(nil)) }

func TestParseCombinedRecord(t *testing.T) {
	r, err := ParseCombinedRecord(combinedLine)
	if err != nil {
		t.Fatal(err)
	}
	if r.Referer != "/p/3.html" {
		t.Errorf("Referer = %q", r.Referer)
	}
	if r.UserAgent != "Mozilla/5.0 (X11; Linux)" {
		t.Errorf("UserAgent = %q", r.UserAgent)
	}
	if r.Host != "10.0.0.7" || r.URI != "/p/17.html" {
		t.Errorf("common prefix lost: %+v", r)
	}
	if !r.HasReferer() {
		t.Error("HasReferer = false")
	}
}

func TestParseCombinedRecordDashes(t *testing.T) {
	r, err := ParseCombinedRecord(sampleLine + ` "-" "-"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Referer != "-" || r.UserAgent != "-" {
		t.Errorf("dash fields = %q / %q", r.Referer, r.UserAgent)
	}
	if r.HasReferer() {
		t.Error("HasReferer true for dash")
	}
}

func TestParseCombinedRejectsCommon(t *testing.T) {
	if _, err := ParseCombinedRecord(sampleLine); err == nil {
		t.Error("combined parser accepted a common-format line")
	}
	bad := []string{
		sampleLine + ` "only-one-quoted"`,
		sampleLine + ` unquoted unquoted`,
		`"just" "quotes"`,
	}
	for _, line := range bad {
		if _, err := ParseCombinedRecord(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseAnyRecord(t *testing.T) {
	r, combined, err := ParseAnyRecord(combinedLine)
	if err != nil || !combined || r.Referer != "/p/3.html" {
		t.Errorf("combined: %v %v %+v", err, combined, r)
	}
	r, combined, err = ParseAnyRecord(sampleLine)
	if err != nil || combined || r.Referer != "" {
		t.Errorf("common: %v %v %+v", err, combined, r)
	}
	if _, _, err := ParseAnyRecord("junk"); err == nil {
		t.Error("junk accepted")
	}
}

func TestCombinedStringRoundTrip(t *testing.T) {
	r, err := ParseCombinedRecord(combinedLine)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CombinedString(); got != combinedLine {
		t.Errorf("CombinedString = %q\nwant            %q", got, combinedLine)
	}
	// Empty fields render as dashes and re-parse.
	r.Referer, r.UserAgent = "", ""
	r2, err := ParseCombinedRecord(r.CombinedString())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Referer != "-" || r2.UserAgent != "-" {
		t.Errorf("round trip of empty fields: %q/%q", r2.Referer, r2.UserAgent)
	}
}

func TestCombinedStringStripsQuotes(t *testing.T) {
	r, err := ParseRecord(sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	r.UserAgent = `evil "agent"`
	line := r.CombinedString()
	r2, err := ParseCombinedRecord(line)
	if err != nil {
		t.Fatalf("quoted agent broke the line %q: %v", line, err)
	}
	if strings.Contains(r2.UserAgent, `"`) {
		t.Errorf("quotes survived: %q", r2.UserAgent)
	}
}

func TestScannerReadsMixedFormats(t *testing.T) {
	input := sampleLine + "\n" + combinedLine + "\n"
	sc := NewScanner(strings.NewReader(input))
	var recs []Record
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	if len(recs) != 2 {
		t.Fatalf("scanned %d records", len(recs))
	}
	if recs[0].Referer != "" || recs[1].Referer != "/p/3.html" {
		t.Errorf("referers = %q / %q", recs[0].Referer, recs[1].Referer)
	}
}

func TestCombinedWriter(t *testing.T) {
	r, err := ParseCombinedRecord(combinedLine)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w := NewCombinedWriter(&sb)
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(sb.String()); got != combinedLine {
		t.Errorf("combined writer output %q", got)
	}
}

// Property: CombinedString/ParseCombinedRecord round-trips.
func TestCombinedRoundTripProperty(t *testing.T) {
	f := func(host uint32, page uint16, ref uint16, unix int32) bool {
		r := Record{
			Host: ipv4(host), Ident: "-", AuthUser: "-",
			Time:     time.Unix(int64(unix)&0x7fffffff, 0).UTC(),
			Method:   "GET",
			URI:      "/p/" + itoa(int(page)) + ".html",
			Protocol: "HTTP/1.1",
			Status:   200, Bytes: 7,
			Referer:   "/p/" + itoa(int(ref)) + ".html",
			UserAgent: "agent-simulator/1.0",
		}
		got, err := ParseCombinedRecord(r.CombinedString())
		if err != nil {
			return false
		}
		same := got.Time.Equal(r.Time)
		got.Time, r.Time = time.Time{}, time.Time{}
		return same && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
