package smartsra

import (
	"bytes"
	"os"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/core"
)

// BenchmarkStreamIngest measures the bounded-memory streaming path:
// clf.StreamChunked alone, and the end-to-end pipelines — a Tail fed through
// Ingest, as cmd/serve -backfill runs it, and a Tail reading an OS
// pipe that is written 64 KiB at a time, as
// `cat access.log | sessionize -stream -log -` does. The records/s metric is
// the headline; output equivalence with ReadAll is pinned by
// TestGoldenCorpusStream and FuzzStreamChunks.
func BenchmarkStreamIngest(b *testing.B) {
	g, records, data := ingestWorkload(b)
	recs := float64(len(records))

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := clf.StreamChunked(bytes.NewReader(data), clf.StreamConfig{}, func([]clf.Record) {}, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("ingest", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st, err := core.NewTail(core.Config{Graph: g}, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Ingest(bytes.NewReader(data), core.DiscardSessions, nil); err != nil {
				b.Fatal(err)
			}
			st.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("pipe", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			pr, pw, err := os.Pipe()
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				defer pw.Close()
				for off := 0; off < len(data); off += 64 << 10 {
					if _, err := pw.Write(data[off:min(off+64<<10, len(data))]); err != nil {
						return // the reader failed and closed its end
					}
				}
			}()
			tl, err := core.NewTail(core.Config{Graph: g}, 0)
			if err != nil {
				b.Fatal(err)
			}
			_, err = tl.Ingest(pr, core.DiscardSessions, nil)
			pr.Close()
			if err != nil {
				b.Fatal(err)
			}
			tl.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
