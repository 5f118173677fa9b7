package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"prtree/internal/serve"
)

// spinMargin is how early the pacer wakes before a request's due time;
// it then spins the remaining few microseconds.
const spinMargin = 30 * time.Microsecond

// sleepUntil waits until t: a thread sleep for all but spinMargin, then a
// short spin.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > spinMargin {
		sleepFor(d - spinMargin)
	}
	for time.Now().Before(t) {
	}
}

// Generator validity limits. A slice of the run in which the generator's
// own pacing lag p99 exceeds lagLimit, or in which fewer than
// minCompletedShare of the offered requests completed (the backlog
// grew), is invalid: its latencies describe the generator or an overload,
// not the server at the offered rate, and are left out of the figures.
// The generator shares the server's two CPUs, so each garbage collection
// cycle of the server holds it back too: its pacing lag p99 runs at 1-3 ms
// at the fixed rate. The limit sits at the 5 ms latency target, above
// that floor.
const (
	lagLimit          = 5 * time.Millisecond
	minCompletedShare = 0.9
)

// openLoop is the outcome of one open-loop phase.
type openLoop struct {
	samples   []sample        // latency from each request's due time
	rtt       []time.Duration // send to decoded response
	lags      []sample        // pacing lag of requests sent on an idle connection
	completed []time.Duration // completion offsets from the phase start
	attempted int
	failed    int
	span      time.Duration

	encode      []time.Duration // EncodeRequest calls (traced runs)
	decode      time.Duration   // DecodeResponse time (traced runs)
	decodeItems int
}

// served returns each request's latency from the moment it was sent, at
// its due time unless its connection was busy: its own round trip. Its latency from the due
// time also holds the wait behind a slow predecessor on the same
// connection, which the samples keep.
func (o *openLoop) served() []sample {
	out := make([]sample, len(o.samples))
	for i, s := range o.samples {
		sent := s.at + s.lat - o.rtt[i]
		out[i] = sample{at: sent, lat: o.rtt[i]}
	}
	return out
}

func toRequest(q query) serve.Request {
	switch q.kind {
	case kindPoint:
		return serve.Request{Op: serve.OpPoint, X: q.x, Y: q.y}
	case kindKNN:
		return serve.Request{Op: serve.OpNearest, X: q.x, Y: q.y, K: knnK}
	default:
		return serve.Request{Op: serve.OpWindow, Rect: q.rect}
	}
}

func resultFP(q query, res serve.Result) (fingerprint, int) {
	if q.kind == kindKNN {
		return wireNeighborsFP(res.Neighbors), len(res.Neighbors)
	}
	if len(res.Sets) != 1 {
		return fingerprint{n: -1}, 0
	}
	return itemsFP(res.Sets[0]), len(res.Sets[0])
}

// runOpenLoop sends requests drawn from pool to addr at a fixed total
// rate over conns connections for dur. Request i is due at i/rate from
// the start and goes out on connection i mod conns; each connection has
// one request in flight, so a slow response delays the next request and
// that wait counts in its latency from the due time. Every answer is
// checked against want.
func runOpenLoop(addr string, pool []query, want []fingerprint, rate float64, dur time.Duration, conns int, seed int64, tr *tracer) (*openLoop, error) {
	total := int(rate * dur.Seconds())
	rng := rand.New(rand.NewSource(seed))
	pick := make([]int32, total)
	for i := range pick {
		pick[i] = int32(rng.Intn(len(pool)))
	}
	period := time.Duration(float64(time.Second) / rate)
	clients := make([]net.Conn, conns)
	for c := range clients {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, cl := range clients[:c] {
				cl.Close()
			}
			return nil, fmt.Errorf("dialing %s: %w", addr, err)
		}
		clients[c] = conn
	}
	parts := make([]*openLoop, conns)
	errs := make([]error, conns)
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer clients[c].Close()
			parts[c], errs[c] = connLoop(clients[c], c, conns, t0, period, total, pool, want, pick, tr.log())
		}(c)
	}
	wg.Wait()
	out := &openLoop{span: dur}
	for c, p := range parts {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out.samples = append(out.samples, p.samples...)
		out.rtt = append(out.rtt, p.rtt...)
		out.lags = append(out.lags, p.lags...)
		out.completed = append(out.completed, p.completed...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.encode = append(out.encode, p.encode...)
		out.decode += p.decode
		out.decodeItems += p.decodeItems
	}
	return out, nil
}

func connLoop(conn net.Conn, c, conns int, t0 time.Time, period time.Duration, total int, pool []query, want []fingerprint, pick []int32, log *spanLog) (*openLoop, error) {
	defer log.flush()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	out := &openLoop{}
	var buf []byte
	prevDone := t0
	for i := c; i < total; i += conns {
		due := t0.Add(time.Duration(i) * period)
		sleepUntil(due)
		sent := time.Now()
		if !prevDone.After(due) {
			out.lags = append(out.lags, sample{at: due.Sub(t0), lat: sent.Sub(due)})
		}
		qi := pick[i]
		q := pool[qi]
		reqID := uint64(i + 1)
		root, rootStart := log.begin()

		id, start := log.begin()
		var err error
		buf, err = serve.EncodeRequest(buf[:0], toRequest(q))
		if log != nil {
			out.encode = append(out.encode, log.end(id, root, reqID, "serve", "EncodeRequest", start))
		}
		if err != nil {
			return nil, err
		}
		id, start = log.begin()
		var payload []byte
		if err = serve.WriteFrame(bw, buf); err == nil {
			if err = bw.Flush(); err == nil {
				payload, err = serve.ReadFrame(br, serve.MaxResponseFrame)
			}
		}
		log.end(id, root, reqID, "serve", "wire", start)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		id, start = log.begin()
		res, derr := serve.DecodeResponse(payload)
		d := log.end(id, root, reqID, "serve", "DecodeResponse", start)
		done := time.Now()
		log.end(root, 0, reqID, "client", "request", rootStart)

		out.attempted++
		got, n := resultFP(q, res)
		if derr != nil || res.Degraded() || got != want[qi] {
			out.failed++
		}
		out.decode += d
		out.decodeItems += n
		out.samples = append(out.samples, sample{at: due.Sub(t0), lat: done.Sub(due)})
		out.rtt = append(out.rtt, done.Sub(sent))
		out.completed = append(out.completed, done.Sub(t0))
		prevDone = done
	}
	return out, nil
}

// validity reports, per slice of the phase, whether the generator kept
// pace and the server kept up, and the generator lag p99 over the phase.
func (o *openLoop) validity(rate float64) (valid []bool, lagP99 time.Duration) {
	slices := sliceCountFor(o.attempted)
	width := o.span / time.Duration(slices)
	done := make([]int, slices)
	for _, c := range o.completed {
		done[sliceOf(c, o.span, slices)]++
	}
	lags := make([][]time.Duration, slices)
	var all []time.Duration
	for _, l := range o.lags {
		i := sliceOf(l.at, o.span, slices)
		lags[i] = append(lags[i], l.lat)
		all = append(all, l.lat)
	}
	offered := rate * width.Seconds()
	valid = make([]bool, slices)
	for i := range valid {
		valid[i] = float64(done[i]) >= minCompletedShare*offered &&
			quantile(sortDurations(lags[i]), 0.99) <= lagLimit
	}
	return valid, quantile(sortDurations(all), 0.99)
}
