package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/recognize"
)

// The traced run's recognition-service load: csdserve on the
// workload's snapshot, /v1/recognize driven open-loop.
const (
	serveRate        = 400  // requests per second, well below capacity on two cores
	serveStays       = 4    // stays per request: one short journey
	serveJitterM     = 15   // GPS jitter on each stay, metres (σ)
	serveBodies      = 4096 // distinct request bodies, cycled
	serveWarmup      = time.Second
	serveTime        = 3 * time.Second
	serveCheckEvery  = 53 // every 53rd reply is checked against RecognizeBuf
	serveLateLimit   = 100 * time.Millisecond
	serveReadyWithin = 60 * time.Second
)

// serveRequests draws the request stream: each request is serveStays
// stays picked from the city's own stay points, with GPS jitter.
func serveRequests(stays []geo.Point, seed int64, n int) [][]geo.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]geo.Point, n)
	for i := range out {
		req := make([]geo.Point, serveStays)
		for k := range req {
			p := stays[rng.Intn(len(stays))]
			dLat := rng.NormFloat64() * serveJitterM / 111320
			dLon := rng.NormFloat64() * serveJitterM / (111320 * math.Cos(p.Lat*math.Pi/180))
			req[k] = geo.Point{Lon: p.Lon + dLon, Lat: p.Lat + dLat}
		}
		out[i] = req
	}
	return out
}

type pointJSON struct {
	Lon float64 `json:"lon"`
	Lat float64 `json:"lat"`
}

func requestBody(pts []geo.Point) []byte {
	req := struct {
		Stays []pointJSON `json:"stays"`
	}{}
	for _, p := range pts {
		req.Stays = append(req.Stays, pointJSON{p.Lon, p.Lat})
	}
	b, _ := json.Marshal(req) // plain floats always marshal
	return b
}

// expectedSemantics recognizes pts in-process the way the server must:
// CSDRecognizer.RecognizeBuf on the same snapshot.
func expectedSemantics(rec *recognize.CSDRecognizer, pts []geo.Point, sc *recognize.Scratch) [][]string {
	out := make([][]string, len(pts))
	for i, p := range pts {
		names := []string{}
		for _, m := range rec.RecognizeBuf(p, sc).Majors() {
			names = append(names, m.String())
		}
		out[i] = names
	}
	return out
}

// server is one running csdserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	base string
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts csdserve on snap and returns once /readyz answers
// 200, with the time that took from the spawn.
func startServer(e *env, snap string) (*server, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(e.dir, "csdserve.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.bin, "csdserve"), "-snapshot", snap, "-addr", addr, "-drain-timeout", "5s")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, addr: addr, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	for time.Since(t0) < serveReadyWithin {
		if resp, err := client.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("csdserve not ready within %s", serveReadyWithin)
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// recognizer posts requests to one server, one keep-alive connection
// per sender, and checks a sample of the replies. Each sender writes
// its request and reads the reply itself (http.ReadResponse on its own
// connection), so a reply wakes exactly the goroutine that waits for
// it.
type recognizer struct {
	addr  string
	reqs  [][]byte     // full HTTP requests, cycled
	want  [][][]string // expected semantics per request
	conns []*clientConn
	bad   chan string // first mismatches, for the report
}

type clientConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newRecognizer(addr string, conns int, bodies [][]byte, want [][][]string) *recognizer {
	r := &recognizer{
		addr:  addr,
		want:  want,
		conns: make([]*clientConn, conns),
		bad:   make(chan string, 8), // only the first few mismatches are reported
	}
	for _, b := range bodies {
		head := fmt.Sprintf("POST /v1/recognize HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(b))
		r.reqs = append(r.reqs, append([]byte(head), b...))
	}
	return r
}

// close closes every sender's connection.
func (r *recognizer) close() {
	for _, c := range r.conns {
		if c != nil {
			c.c.Close()
		}
	}
}

func (r *recognizer) send(conn, i int) error {
	err := r.roundTrip(conn, i)
	if err != nil && r.conns[conn] != nil {
		r.conns[conn].c.Close() // the next request redials
		r.conns[conn] = nil
	}
	return err
}

func (r *recognizer) roundTrip(conn, i int) error {
	cc := r.conns[conn]
	if cc == nil {
		c, err := net.Dial("tcp", r.addr)
		if err != nil {
			return err
		}
		cc = &clientConn{c: c, br: bufio.NewReader(c)}
		r.conns[conn] = cc
	}
	b := i % len(r.reqs)
	if _, err := cc.c.Write(r.reqs[b]); err != nil {
		return err
	}
	resp, err := http.ReadResponse(cc.br, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if i%serveCheckEvery != 0 {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	var reply struct {
		Stays []struct {
			Semantics []string `json:"semantics"`
		} `json:"stays"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	got := make([][]string, len(reply.Stays))
	for k, s := range reply.Stays {
		got[k] = s.Semantics
	}
	if !reflect.DeepEqual(got, r.want[b]) {
		select {
		case r.bad <- fmt.Sprintf("request %d: got %v, want %v", i, got, r.want[b]):
		default:
		}
	}
	return nil
}

// requestSet encodes each request and its expected reply.
func requestSet(d *csd.Diagram, reqs [][]geo.Point) (bodies [][]byte, want [][][]string) {
	rec := recognize.NewCSDRecognizer(d)
	var sc recognize.Scratch
	bodies = make([][]byte, len(reqs))
	want = make([][][]string, len(reqs))
	for i, pts := range reqs {
		bodies[i] = requestBody(pts)
		want[i] = expectedSemantics(rec, pts, &sc)
	}
	return bodies, want
}

// scrape fetches the server's /metrics exposition.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histQuantile interpolates the q-quantile of the recognize route's
// request histogram from a scrape, in milliseconds, the way Prometheus'
// histogram_quantile does.
func histQuantile(m map[string]float64, family, route string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{route="` + route + `",le="`
	for k, v := range m {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				le = math.Inf(1)
			}
			bs = append(bs, bucket{le, v})
		}
	}
	if len(bs) == 0 {
		return math.NaN()
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe * 1e3
			}
			if b.n == prevN {
				return b.le * 1e3
			}
			return (prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN)) * 1e3
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe * 1e3
}
