package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// The box this benchmark runs on is a few cores of a shared host, and its
// speed changes with what the neighbours do: the same sessionize binary over
// the same file takes 1.5 s in one minute and 2.4 s in another, its user CPU
// time growing with its wall time. The change is in the memory system (a
// register-only loop keeps its pace, a pointer chase and an allocating loop do
// not), it comes in stretches that outlast a run, and medians of raw times
// over ten runs therefore spread by 0.15 to 0.37 in a bad hour.
//
// So every timed sample is taken between two readings of a yardstick: a small
// fixed job of the same kind of work the programs do (write a log, split and
// parse it, fill a map of per-user slices, sort, chain through small maps,
// encode, walk the heap at random), run as a fresh process so that its heap
// is the same every time. A reading's wall time over yardRef is the box's
// slowdown at that moment; a sample's wall and CPU time are divided by the
// mean slowdown of the readings before and after it, to the power yardWeight.
// The reported times are "at the reference box speed", the speed at which the
// yardstick takes yardRef seconds. The yardstick is frozen with the benchmark
// and shares no code with the programs under test: a change to them moves
// their times and not the yardstick's, so it shows in full, and both sides of
// a comparison are divided alike.
//
// README.md ("Recorded spread") has what this buys on each workload. The raw
// readings are kept under "raw." names, and bench.box_slowdown says what the
// divisor was.

const (
	// yardstickEnv marks a process as one yardstick job; see launchIfAsked.
	yardstickEnv = "SMARTSRA_BENCH_YARDSTICK"
	// yardLines sizes the job: about a third of a second, a sixth of the
	// shortest timed sample.
	yardLines = 100_000
	// yardRef is the job's wall time in seconds on an ordinary stretch of
	// the box the benchmark was written on. Only ratios matter: another
	// value scales every time-based metric by one factor on both sides of
	// any comparison.
	yardRef = 0.33
	// yardWeight is the share of a slowdown the yardstick reads that a
	// sample's time is corrected by. A third of a second of yardstick is
	// itself a noisy reading of the box (0.10 to 0.14 from one job to the
	// next), and dividing by all of it puts that noise into samples that
	// had less: with weight 1 the ten-run spread of eval_sweep and
	// live_serve in a quiet hour rose from 0.04-0.08 to 0.11-0.14, with
	// 0.6 the offline workloads kept 0.13-0.15 of a bad hour's 0.20-0.37.
	// 0.8 had the smallest worst case over the four workloads.
	yardWeight = 0.8
)

// yardstick takes readings and remembers the latest.
type yardstick struct {
	ctx  context.Context
	last float64   // slowdown of the latest reading
	all  []float64 // every reading's slowdown
}

// newYardstick takes the first reading.
func newYardstick(ctx context.Context) (*yardstick, error) {
	y := &yardstick{ctx: ctx}
	_, err := y.read(1)
	return y, err
}

// read runs the yardstick job jobs times and returns the box's slowdown over
// whatever ran since the previous reading: the mean of that reading and this
// one. A caller whose samples are long takes two jobs per reading, which
// costs it little and halves what the reading itself adds.
func (y *yardstick) read(jobs int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	now := 0.0
	for i := 0; i < jobs; i++ {
		child, err := runChildEnv(y.ctx, []string{yardstickEnv + "=1"}, self)
		if err != nil {
			return 0, err
		}
		if child.ExitCode != 0 {
			return 0, fmt.Errorf("yardstick exited %d: %s", child.ExitCode, lastLine(child.Stderr))
		}
		now += child.Wall.Seconds() / yardRef / float64(jobs)
	}
	before := y.last
	if len(y.all) == 0 {
		before = now
	}
	y.last = now
	y.all = append(y.all, now)
	return (before + now) / 2, nil
}

// atRef turns seconds measured while the box ran slowdown times slower than
// the reference into seconds at the reference speed.
func atRef(seconds, slowdown float64) float64 {
	return seconds / math.Pow(slowdown, yardWeight)
}

type yardEntry struct {
	ts       int64
	page     int32
	referrer int32
	next     *yardEntry
}

type yardUser struct {
	name    string
	entries []*yardEntry
}

// yardstickWork is the fixed job. It returns a number that depends on all of
// it, so that nothing is optimised away.
func yardstickWork(lines int) int {
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var log bytes.Buffer
	ts := int64(1_150_000_000)
	for i := 0; i < lines; i++ {
		r := rnd()
		ts += int64(r % 3)
		fmt.Fprintf(&log, "10.%d.%d.%d - - [%d] \"GET /p%d.html HTTP/1.1\" 200 %d \"/p%d.html\"\n",
			r>>8&63, r>>16&255, r>>24&15, ts, r>>32%300, 1000+r>>40%9000, r>>48%300)
	}

	users := make(map[string]*yardUser)
	var all []*yardEntry
	for data := log.Bytes(); len(data) > 0; {
		nl := bytes.IndexByte(data, '\n')
		f := bytes.Fields(data[:nl])
		data = data[nl+1:]
		t, _ := strconv.ParseInt(string(f[3][1:len(f[3])-1]), 10, 64)
		page, _ := strconv.Atoi(string(f[5][2 : len(f[5])-5]))
		ref, _ := strconv.Atoi(string(f[9][3 : len(f[9])-6]))
		u := users[string(f[0])]
		if u == nil {
			u = &yardUser{name: string(f[0])}
			users[u.name] = u
		}
		e := &yardEntry{ts: t, page: int32(page), referrer: int32(ref)}
		u.entries = append(u.entries, e)
		all = append(all, e)
	}

	names := make([]string, 0, len(users))
	for n := range users {
		names = append(names, n)
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, n := range names {
		u := users[n]
		sort.Slice(u.entries, func(i, j int) bool { return u.entries[i].ts > u.entries[j].ts })
		last := make(map[int32]*yardEntry)
		for _, e := range u.entries {
			if p := last[e.referrer]; p != nil {
				e.next = p
			}
			last[e.page] = e
		}
		for _, e := range u.entries {
			out.WriteString(n)
			for c, k := e, 0; c != nil && k < 8; c, k = c.next, k+1 {
				out.WriteByte(' ')
				out.WriteString(strconv.Itoa(int(c.page)))
			}
			out.WriteByte('\n')
		}
	}

	sum := 0
	for i := 0; i < 2*len(all); i++ {
		sum += int(all[rnd()%uint64(len(all))].ts & 7)
	}
	return out.Len() + sum
}
