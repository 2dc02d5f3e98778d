package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/simulator"
)

// The load driver. internal/loadgen is not reused: it times a request from
// the moment it is sent, which hides exactly what an open loop must show —
// a stall makes every request queued behind it late, and only timing from
// the moment each request was DUE counts that waiting.

// reqTimeout bounds one request; a request that exceeds it is a failure.
const reqTimeout = 5 * time.Second

// shot is one request's outcome. Times are offsets from the phase start.
type shot struct {
	due  time.Duration // when the schedule wanted it sent (closed loop: when it was sent)
	sent time.Duration
	done time.Duration // last body byte read
	// status is the HTTP status, or 0 for a transport error or timeout.
	status int
}

// phase is one driven interval.
type phase struct {
	// Rate is the fixed request rate of an open-loop phase; 0 means
	// closed loop (each connection sends as soon as its reply arrived).
	Rate    float64
	Elapsed time.Duration
	Shots   []shot
}

// latenciesMS returns one latency per request: done-due of an accepted
// (2xx/3xx) one. A refused or failed request never got its page, so it counts
// as having taken the longest a request can, reqTimeout: refusing requests
// makes a percentile worse, never better.
func (p *phase) latenciesMS() []float64 {
	out := make([]float64, len(p.Shots))
	for i, s := range p.Shots {
		lat := s.done - s.due
		if !s.accepted() {
			lat = max(lat, reqTimeout)
		}
		out[i] = float64(lat) / float64(time.Millisecond)
	}
	return out
}

// latenessMS returns how late the generator sent each request.
func (p *phase) latenessMS() []float64 {
	out := make([]float64, len(p.Shots))
	for i, s := range p.Shots {
		out[i] = float64(s.sent-s.due) / float64(time.Millisecond)
	}
	return out
}

// latenessGrowing reports whether the generator fell further behind as an
// open-loop phase of length dur went on: the requests due in its second half
// were sent more than a millisecond later, on average, than those due in its
// first. Shots are stored connection by connection, so they are split by due
// time, not by position.
func (p *phase) latenessGrowing(dur time.Duration) bool {
	var sum [2]time.Duration
	var n [2]int
	for _, s := range p.Shots {
		h := 0
		if s.due >= dur/2 {
			h = 1
		}
		sum[h] += s.sent - s.due
		n[h]++
	}
	if n[0] == 0 || n[1] == 0 {
		return false
	}
	return sum[1]/time.Duration(n[1]) > sum[0]/time.Duration(n[0])+time.Millisecond
}

func (s shot) accepted() bool { return s.status >= 200 && s.status < 400 }

// tally splits the shots into the buckets the conservation check adds up.
type tally struct {
	Sent, Accepted, Shed, Rejected, Errors int
}

func (p *phase) tally() tally {
	t := tally{Sent: len(p.Shots)}
	for _, s := range p.Shots {
		switch {
		case s.accepted():
			t.Accepted++
		case s.status == http.StatusServiceUnavailable:
			t.Shed++
		case s.status == 0:
			t.Errors++
		default:
			t.Rejected++
		}
	}
	return t
}

func (t *tally) add(u tally) {
	t.Sent += u.Sent
	t.Accepted += u.Accepted
	t.Shed += u.Shed
	t.Rejected += u.Rejected
	t.Errors += u.Errors
}

// driver replays a request schedule against one server over a fixed number
// of keep-alive connections, one goroutine each.
type driver struct {
	addr  string
	conns int
	reqs  [][]byte
	// cursor is the next schedule position; it carries across phases so
	// the server sees one continuous replay of the schedule.
	cursor atomic.Int64
}

// renderRequests turns the simulator's schedule into HTTP/1.1 request
// bytes, so the timed loop only writes and reads. The simulated user rides
// X-Forwarded-For, as cmd/loadgen sends it.
func renderRequests(sched []simulator.Request) [][]byte {
	out := make([][]byte, len(sched))
	for i, q := range sched {
		b := make([]byte, 0, 128)
		b = append(b, "GET "...)
		b = append(b, q.URI...)
		b = append(b, " HTTP/1.1\r\nHost: bench\r\nX-Forwarded-For: "...)
		b = append(b, q.User...)
		if q.Referer != "" && q.Referer != clf.NoField {
			b = append(b, "\r\nReferer: "...)
			b = append(b, q.Referer...)
		}
		out[i] = append(b, "\r\n\r\n"...)
	}
	return out
}

// run drives one phase: open loop at rate requests/s (request i is due at
// start + i/rate, whatever the server does), or closed loop when rate is 0.
// It returns when dur has passed and every in-flight request has ended.
func (d *driver) run(ctx context.Context, rate float64, dur time.Duration) *phase {
	p := &phase{Rate: rate}
	perConn := make([][]shot, d.conns)
	var issued atomic.Int64 // phase-local request index
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cl client
			defer cl.close()
			for ctx.Err() == nil {
				var due time.Duration
				if rate > 0 {
					i := issued.Add(1) - 1
					due = time.Duration(float64(i) / rate * float64(time.Second))
					if due >= dur {
						return
					}
					sleepFor(due - time.Since(start))
				} else if due = time.Since(start); due >= dur {
					return
				}
				req := d.reqs[int(d.cursor.Add(1)-1)%len(d.reqs)]
				sent := time.Since(start)
				status := cl.do(d.addr, req)
				perConn[c] = append(perConn[c], shot{due: due, sent: sent, done: time.Since(start), status: status})
			}
		}(c)
	}
	wg.Wait()
	p.Elapsed = time.Since(start)
	for _, s := range perConn {
		p.Shots = append(p.Shots, s...)
	}
	return p
}

// sleepFor blocks the calling thread for d. time.Sleep will not do: Go's
// runtime timers resolve to about a millisecond here (a 200 µs sleep takes
// 1.1 ms), which at 5000 requests/s is five request slots; nanosleep(2)
// overshoots by 60-100 µs. The overshoot that remains is reported as
// bench.gen_late_p99_ms.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// client is one keep-alive connection speaking just enough HTTP/1.1.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and reads the whole response. It returns the status,
// or 0 after a transport error (the connection is then redialled next time).
func (c *client) do(addr string, req []byte) int {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, reqTimeout)
		if err != nil {
			return 0
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.conn.SetDeadline(time.Now().Add(reqTimeout))
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
		if err != nil {
			return 0
		}
	}
	return resp.StatusCode
}
