package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"implicate/internal/proto"
	"implicate/internal/stream"
)

// fakeServer is a scripted proto endpoint: handle is called per request
// frame and returns the response frame. It answers out of order when
// handlers block, which is exactly what the pipelining tests need.
type fakeServer struct {
	ln     net.Listener
	handle func(f proto.Frame) proto.Frame
	wg     sync.WaitGroup
}

func startFake(t *testing.T, handle func(f proto.Frame) proto.Frame) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handle: handle}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				defer c.Close()
				var wmu sync.Mutex
				fr := proto.NewFrameReader(c)
				for {
					f, err := fr.Next()
					if err != nil {
						return
					}
					// Handlers run on their own goroutines, past the next read.
					f.Payload = append([]byte(nil), f.Payload...)
					if f.Type == proto.TBoot {
						// The dial handshake; scripted handlers only see the
						// RPCs under test.
						wmu.Lock()
						proto.WriteFrame(c, proto.Frame{Type: proto.TResult, ID: f.ID,
							Payload: proto.Boot{Nonce: 0xfa4e}.Encode()})
						wmu.Unlock()
						continue
					}
					fs.wg.Add(1)
					go func() {
						defer fs.wg.Done()
						resp := fs.handle(f)
						wmu.Lock()
						defer wmu.Unlock()
						proto.WriteFrame(c, resp)
					}()
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); fs.wg.Wait() })
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func testSchema(t *testing.T) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func okIngest(f proto.Frame) proto.Frame {
	return proto.Frame{Type: proto.TOK, ID: f.ID, Payload: proto.IngestAck{Tuples: 2}.Encode()}
}

func TestDialFailsFast(t *testing.T) {
	if _, err := Dial("127.0.0.1:0", nil, Options{DialTimeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("dial to port 0 succeeded")
	}
	if _, err := Dial("x", nil, Options{Conns: -1}); err == nil {
		t.Fatal("negative pool size accepted")
	}
}

func TestIngestBusyThenOK(t *testing.T) {
	var mu sync.Mutex
	busyLeft := 3
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		mu.Lock()
		defer mu.Unlock()
		if busyLeft > 0 {
			busyLeft--
			return proto.Frame{Type: proto.TBusy, ID: f.ID, Payload: proto.Busy{RetryAfter: time.Millisecond}.Encode()}
		}
		return okIngest(f)
	})
	cl, err := Dial(fs.addr(), testSchema(t), Options{RetryBase: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.IngestBatch([]stream.Tuple{{"a", "b"}, {"c", "d"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if busyLeft != 0 {
		t.Fatalf("%d busy replies left unconsumed", busyLeft)
	}
}

func TestIngestBusyRetriesExhausted(t *testing.T) {
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		return proto.Frame{Type: proto.TBusy, ID: f.ID, Payload: proto.Busy{}.Encode()}
	})
	cl, err := Dial(fs.addr(), testSchema(t), Options{BusyRetries: 2, RetryBase: time.Microsecond, RetryCap: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.IngestBatch([]stream.Tuple{{"a", "b"}})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
}

func TestIngestAckCountMismatch(t *testing.T) {
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		return proto.Frame{Type: proto.TOK, ID: f.ID, Payload: proto.IngestAck{Tuples: 1}.Encode()}
	})
	cl, err := Dial(fs.addr(), testSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.IngestBatch([]stream.Tuple{{"a", "b"}, {"c", "d"}}); err == nil || !strings.Contains(err.Error(), "acknowledged 1 of 2") {
		t.Fatalf("short ack not detected: %v", err)
	}
}

func TestRemoteErrorSurfaces(t *testing.T) {
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		return proto.Frame{Type: proto.TError, ID: f.ID, Payload: proto.EncodeError("no such statement")}
	})
	cl, err := Dial(fs.addr(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var remote *RemoteError
	if _, err := cl.Query(9); !errors.As(err, &remote) || remote.Msg != "no such statement" {
		t.Fatalf("remote error not surfaced: %v", err)
	}
}

func TestPipeliningMatchesResponsesById(t *testing.T) {
	// The fake delays the FIRST query it sees, so responses come back out of
	// request order; each caller must still get its own answer.
	var mu sync.Mutex
	seen := 0
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		req, err := proto.DecodeStmtReq(f.Payload)
		if err != nil {
			return proto.Frame{Type: proto.TError, ID: f.ID, Payload: proto.EncodeError(err.Error())}
		}
		mu.Lock()
		seen++
		first := seen == 1
		mu.Unlock()
		if first {
			time.Sleep(50 * time.Millisecond)
		}
		return proto.Frame{Type: proto.TResult, ID: f.ID,
			Payload: proto.QueryResult{Count: float64(req.Stmt), Tuples: int64(req.Stmt)}.Encode()}
	})
	cl, err := Dial(fs.addr(), nil, Options{Conns: 1}) // one conn: all calls share it
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const calls = 16
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Query(i)
			if err != nil {
				errs <- err
				return
			}
			if res.Count != float64(i) {
				errs <- fmt.Errorf("query %d got answer %v", i, res.Count)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOversizeRequestFailsAlone pins that a request no frame can carry
// fails by itself: the shared connection stays up and the batch pipelined
// ahead of it is still acknowledged.
func TestOversizeRequestFailsAlone(t *testing.T) {
	release := make(chan struct{})
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		<-release // hold the first batch's ack until the oversize send has failed
		return okIngest(f)
	})
	cl, err := Dial(fs.addr(), testSchema(t), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload, err := EncodeBatch(testSchema(t), []stream.Tuple{{"a", "b"}, {"c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.IngestAsync(payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.IngestEncoded(make([]byte, proto.MaxFrame), 1); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Errorf("oversize ingest returned %v, want the frame size error", err)
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Errorf("the batch pipelined ahead of the oversize one: %v", err)
	}
}

func TestQueryRedialsDeadConnection(t *testing.T) {
	// The first connection dies right after the dial handshake; the pooled
	// client sees a dead conn and must redial for the next idempotent call.
	var mu sync.Mutex
	drops := 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			drop := drops > 0
			if drop {
				drops--
			}
			mu.Unlock()
			go func() {
				defer c.Close()
				fr := proto.NewFrameReader(c)
				for {
					f, err := fr.Next()
					if err != nil {
						return
					}
					if f.Type == proto.TBoot {
						proto.WriteFrame(c, proto.Frame{Type: proto.TResult, ID: f.ID,
							Payload: proto.Boot{Nonce: 0xb007}.Encode()})
						if drop {
							return // connection dies after the handshake
						}
						continue
					}
					proto.WriteFrame(c, proto.Frame{Type: proto.TResult, ID: f.ID,
						Payload: proto.QueryResult{Count: 7, Tuples: 1}.Encode()})
				}
			}()
		}
	}()

	cl, err := Dial(ln.Addr().String(), nil, Options{Conns: 1, NetRetries: 3, RetryBase: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 7 {
		t.Fatalf("count %v", res.Count)
	}
}

func TestRequestTimeout(t *testing.T) {
	fs := startFake(t, func(f proto.Frame) proto.Frame {
		time.Sleep(time.Second) // far beyond the 50ms request timeout
		return proto.Frame{Type: proto.TOK, ID: f.ID}
	})
	cl, err := Dial(fs.addr(), nil, Options{RequestTimeout: 50 * time.Millisecond, NetRetries: 1, RetryBase: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.Stats()
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

func TestCallsAfterCloseFail(t *testing.T) {
	fs := startFake(t, okIngest)
	cl, err := Dial(fs.addr(), testSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Query(0); err == nil {
		t.Fatal("query on closed client succeeded")
	}
	if err := cl.IngestBatch([]stream.Tuple{{"a", "b"}}); err == nil {
		t.Fatal("ingest on closed client succeeded")
	}
}

func TestFencedCallsRefuseNewIncarnation(t *testing.T) {
	// A fake server whose boot nonce can be bumped, simulating a restart.
	// After the bump every live connection is killed, so the pooled client
	// transparently redials — and the fence must catch the new incarnation
	// before a single ingest byte is written.
	var mu sync.Mutex
	nonce := uint64(1)
	var conns []net.Conn
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				defer c.Close()
				fr := proto.NewFrameReader(c)
				for {
					f, err := fr.Next()
					if err != nil {
						return
					}
					switch f.Type {
					case proto.TBoot:
						mu.Lock()
						n := nonce
						mu.Unlock()
						proto.WriteFrame(c, proto.Frame{Type: proto.TResult, ID: f.ID,
							Payload: proto.Boot{Nonce: n}.Encode()})
					case proto.TIngest:
						proto.WriteFrame(c, proto.Frame{Type: proto.TOK, ID: f.ID,
							Payload: proto.IngestAck{Tuples: 1}.Encode()})
					case proto.TQuery:
						proto.WriteFrame(c, proto.Frame{Type: proto.TResult, ID: f.ID,
							Payload: proto.QueryResult{Count: 1, Tuples: 1}.Encode()})
					}
				}
			}()
		}
	}()

	schema := testSchema(t)
	cl, err := Dial(ln.Addr().String(), schema, Options{Conns: 1, RetryBase: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	boot, err := cl.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if boot != 1 {
		t.Fatalf("boot nonce %d, want 1", boot)
	}
	payload, err := EncodeBatch(schema, []stream.Tuple{{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	// Same incarnation: fenced calls go through.
	if err := cl.IngestFenced(payload, 1, boot, proto.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryFenced(0, boot); err != nil {
		t.Fatal(err)
	}

	// "Restart": bump the nonce and kill every live connection.
	mu.Lock()
	nonce = 2
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	// The pool will transparently redial — exactly the hole the fence closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := cl.IngestFenced(payload, 1, boot, proto.TraceContext{})
		if errors.Is(err, ErrIncarnation) {
			break
		}
		if err == nil {
			t.Fatal("fenced ingest crossed a server restart without error")
		}
		// A transient net error from the dying conn is fine; retry until the
		// redial lands on the new incarnation.
		if time.Now().After(deadline) {
			t.Fatalf("never saw ErrIncarnation, last err: %v", err)
		}
	}
	if _, err := cl.QueryFenced(0, boot); !errors.Is(err, ErrIncarnation) {
		t.Fatalf("fenced query after restart: %v", err)
	}
	// Unfenced calls still work against the new incarnation.
	if _, err := cl.Query(0); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Boot(); err != nil || got != 2 {
		t.Fatalf("boot after restart = %d, %v; want 2", got, err)
	}
}

func TestEncodeBatchRequiresSchema(t *testing.T) {
	if _, err := EncodeBatch(nil, []stream.Tuple{{"a", "b"}}); err == nil {
		t.Fatal("nil schema accepted")
	}
	// And the encoding round-trips through a binary reader.
	schema := testSchema(t)
	data, err := EncodeBatch(schema, []stream.Tuple{{"a", "b"}, {"c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	br, err := stream.NewBinaryReader(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := br.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d tuples, want 2", n)
	}
}
