package clf

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ResolveLogPaths expands a -log flag value into the ordered list of files
// it names: a comma-separated list of paths and/or globs ("access.log*"),
// resolved, deduplicated, and sorted lexically — the order rotated log sets
// like access.log.1.gz, access.log.2.gz are replayed in. The spec "-" is
// stdin, returned as nil paths, which ReadLog and the streaming readers take
// to mean the caller's reader; "-" in a list is rejected, as is a glob that
// matches nothing.
func ResolveLogPaths(spec string) ([]string, error) {
	if spec == "-" {
		return nil, nil
	}
	var paths []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "-" {
			return nil, fmt.Errorf("clf: %q cannot combine stdin with file inputs", spec)
		}
		matches := []string{part}
		if strings.ContainsAny(part, "*?[") {
			var err error
			matches, err = filepath.Glob(part)
			if err != nil {
				return nil, fmt.Errorf("clf: bad glob %q: %w", part, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("clf: no files match %q", part)
			}
		}
		for _, m := range matches {
			if !seen[m] {
				seen[m] = true
				paths = append(paths, m)
			}
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("clf: no input files in %q", spec)
	}
	sort.Strings(paths)
	return paths, nil
}

// ReadLog reads every record of the log set paths — plain, gzip or rotated
// files, as ResolveLogPaths lists them — or, for nil paths, of stdin, through
// the chunk reader (StreamFilesChunked, StreamChunked), and returns them with
// the malformed-line count. Records read before a read error are returned
// with it.
func ReadLog(paths []string, stdin io.Reader) (records []Record, malformed int, err error) {
	keep := func(recs []Record) { records = append(records, recs...) } // recs is lent: copy out
	if paths == nil {
		malformed, err = StreamChunked(stdin, StreamConfig{}, keep, nil)
	} else {
		malformed, err = StreamFilesChunked(paths, StreamConfig{}, keep, nil)
	}
	return records, malformed, err
}

// IsGzipFile reports whether path starts with the gzip magic bytes (the
// same sniff the Source layer and OpenDecoded use). False for unreadable
// paths.
func IsGzipFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	return sniffGzip(f)
}

// OpenDecoded opens one log file for reading, transparently decoding gzip
// (sniffed by magic bytes, not extension). Closing the returned ReadCloser
// closes both the decoder and the file.
func OpenDecoded(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !sniffGzip(f) {
		return f, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("clf: gzip %s: %w", path, err)
	}
	return &stackedCloser{Reader: gz, closers: []io.Closer{gz, f}}, nil
}

type stackedCloser struct {
	io.Reader
	closers []io.Closer
}

func (s *stackedCloser) Close() error {
	err := closeAll(s.closers)
	s.closers = nil
	return err
}

// closeAll closes every closer in order and returns the first error.
func closeAll(closers []io.Closer) error {
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
