package netudp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/transport/transporttest"
	"tiamat/tuple"
	"tiamat/wire"
)

// Tests for the buffered receive path (readFrames in netudp.go), driven
// through a scripted net.Conn so every way a byte stream can be cut into
// socket reads is reproducible.

// scriptConn plays a fixed sequence of socket reads. Each chunk is what
// one read(2) finds in the socket: a Read never returns bytes of two
// chunks, and returns less than a chunk only when p is smaller. After the
// last chunk every Read returns end.
type scriptConn struct {
	net.Conn // nil: anything readFrames does not use panics
	chunks   [][]byte
	end      error

	reads    int       // Read calls made
	deadline time.Time // the idle deadline last armed
	short    int       // Read calls made under no deadline or one too near
}

func (c *scriptConn) SetReadDeadline(t time.Time) error {
	c.deadline = t
	return nil
}

// Read counts a read made with less than three quarters of readIdle left
// before the idle deadline: readFrames re-arms it only once its last arm
// is readIdle/4 old.
func (c *scriptConn) Read(p []byte) (int, error) {
	c.reads++
	if time.Until(c.deadline) < readIdle-readIdle/4 {
		c.short++
	}
	if len(c.chunks) == 0 {
		return 0, c.end
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// frame returns m as one length-prefixed frame.
func frame(m *wire.Message) []byte {
	body := wire.Encode(m)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// peer is the sender the scripted streams' preamble names.
const peer wire.Addr = "10.0.0.9:7703"

// opened is a connection's stream from peer: the preamble, then frames.
func opened(frames ...[]byte) []byte {
	stream := appendPreamble(nil, peer)
	for _, f := range frames {
		stream = append(stream, f...)
	}
	return stream
}

// goldenStream is peer's preamble and n frames cycling through the golden
// corpus, each with a distinct ID and every other one peer's own (From
// left empty), as the bytes a sender writes and the messages a receiver
// must decode from them.
func goldenStream(t testing.TB, n int) (stream []byte, want []*wire.Message) {
	corpus := transporttest.Golden(t)
	stream = opened()
	for i := 0; i < n; i++ {
		m := *corpus[i%len(corpus)]
		m.ID = uint64(i + 1)
		if i%2 == 1 {
			m.From = ""
		}
		stream = append(stream, frame(&m)...)
		if m.From == "" {
			m.From = peer
		}
		want = append(want, &m)
	}
	return stream, want
}

// readScript runs readFrames over the scripted reads and returns what
// reached the inbox, the counters and the conn with its bookkeeping. The
// transport is only what a reader touches: no listener, no sockets.
func readScript(t *testing.T, end error, chunks ...[]byte) ([]*wire.Message, *trace.Metrics, *scriptConn) {
	t.Helper()
	met := &trace.Metrics{}
	tr := &Transport{ctr: newCounters(met), inbox: make(chan *wire.Message, 4096)}
	conn := &scriptConn{chunks: chunks, end: end}
	tr.readFrames(conn)
	var got []*wire.Message
	for len(tr.inbox) > 0 {
		got = append(got, <-tr.inbox)
	}
	if conn.short != 0 {
		t.Errorf("%d of %d socket reads made under no idle deadline, or one under %v away", conn.short, conn.reads, readIdle-readIdle/4)
	}
	return got, met, conn
}

func wantCounters(t *testing.T, met *trace.Metrics, readErrors, corrupt int64) {
	t.Helper()
	for ctr, want := range map[string]int64{
		trace.CtrReadErrors: readErrors, trace.CtrCorruptFrames: corrupt,
		trace.CtrMsgsDropped: corrupt, trace.CtrInboxOverflow: 0,
	} {
		if got := met.Get(ctr); got != want {
			t.Errorf("%s = %d, want %d", ctr, got, want)
		}
	}
}

// TestReadFramesDrainsABatchInOneRead is the point of the buffer: what one
// write put on the wire costs one socket read (plus the one that finds the
// end), whatever number of frames it holds.
func TestReadFramesDrainsABatchInOneRead(t *testing.T) {
	stream, want := goldenStream(t, 64)
	got, met, conn := readScript(t, io.EOF, stream)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("64 frames in one chunk: got %d messages, not the %d sent in order", len(got), len(want))
	}
	if max := (len(stream)+readBufSize-1)/readBufSize + 1; conn.reads > max {
		t.Fatalf("%d socket reads for %d bytes in one chunk, want at most %d", conn.reads, len(stream), max)
	}
	wantCounters(t, met, 0, 0)
}

// TestReadFramesSplitAnywhere cuts the same stream at every byte offset —
// inside the preamble, inside a prefix, between prefix and body, inside a
// body — and then into single bytes: the frames decoded, and the sender
// stamped on them, never depend on how reads fell.
func TestReadFramesSplitAnywhere(t *testing.T) {
	stream, want := goldenStream(t, 40) // once through the corpus and on
	check := func(name string, chunks ...[]byte) {
		got, met, _ := readScript(t, io.EOF, chunks...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %d messages, not the %d sent in order", name, len(got), len(want))
		}
		wantCounters(t, met, 0, 0)
	}
	for cut := 1; cut < len(stream); cut++ {
		check(fmt.Sprint("split at ", cut), stream[:cut:cut], stream[cut:])
	}
	bytewise := make([][]byte, len(stream))
	for i := range stream {
		bytewise[i] = stream[i : i+1]
	}
	check("one byte per read", bytewise...)
}

// TestReadFramesCorruptFrameDropsOnlyItself: frames are independent, so a
// bad checksum in the middle of a chunk costs that frame alone.
func TestReadFramesCorruptFrameDropsOnlyItself(t *testing.T) {
	var stream []byte
	for id := uint64(1); id <= 3; id++ {
		f := frame(&wire.Message{Type: wire.TDiscover, ID: id, From: "x"})
		if id == 2 {
			f[len(f)-1] ^= 0xff // break the CRC trailer
		}
		stream = append(stream, f...)
	}
	got, met, _ := readScript(t, io.EOF, opened(stream))
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("neighbours of a corrupt frame: got %+v, want IDs 1 and 3", got)
	}
	wantCounters(t, met, 0, 1)
}

// TestReadFramesEndOfStream pins which ends of a connection are clean and
// which lose a frame and must show on net.read_errors.
func TestReadFramesEndOfStream(t *testing.T) {
	big := &wire.Message{Type: wire.TOut, ID: 1, From: "x", TTL: time.Second,
		Tuple: tuple.T(tuple.Bytes(make([]byte, 300)))} // two-byte prefix
	whole := frame(big)
	_, pn := binary.Uvarint(whole)
	if pn != 2 {
		t.Fatalf("prefix is %d bytes, the test needs 2", pn)
	}
	for _, tc := range []struct {
		name       string
		end        error
		chunks     [][]byte
		delivered  int
		readErrors int64
	}{
		{"EOF before any frame", io.EOF, nil, 0, 0},
		{"EOF between frames", io.EOF, [][]byte{whole}, 1, 0},
		{"idle timeout between frames", os.ErrDeadlineExceeded, [][]byte{whole}, 1, 0},
		{"EOF mid-prefix", io.EOF, [][]byte{whole, whole[:1]}, 1, 1},
		{"timeout mid-prefix", os.ErrDeadlineExceeded, [][]byte{whole[:1]}, 0, 1},
		{"EOF after the prefix", io.EOF, [][]byte{whole[:pn]}, 0, 1},
		{"EOF mid-body", io.EOF, [][]byte{whole[:len(whole)-1]}, 0, 1},
		{"timeout mid-body", os.ErrDeadlineExceeded, [][]byte{whole, whole[:pn+7]}, 1, 1},
		{"reset between frames", io.ErrClosedPipe, [][]byte{whole}, 1, 1},
		{"zero-length frame", io.EOF, [][]byte{whole, {0}, whole}, 1, 1},
		{"oversized prefix", io.EOF, [][]byte{whole, binary.AppendUvarint(nil, maxFrame+1), whole}, 1, 1},
		{"prefix overflowing 64 bits", io.EOF, [][]byte{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}}, 0, 1},
	} {
		got, met, _ := readScript(t, tc.end, append([][]byte{opened()}, tc.chunks...)...)
		if len(got) != tc.delivered {
			t.Errorf("%s: %d frames delivered, want %d", tc.name, len(got), tc.delivered)
		}
		if n := met.Get(trace.CtrReadErrors); n != tc.readErrors {
			t.Errorf("%s: net.read_errors = %d, want %d", tc.name, n, tc.readErrors)
		}
	}
}

// TestReadFramesLargerThanTheBuffer: a body that does not fit the read
// buffer is read straight into its own frame, and the frames around it
// are found where it ends.
func TestReadFramesLargerThanTheBuffer(t *testing.T) {
	payload := make([]byte, 3*readBufSize+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msgs := []*wire.Message{
		{Type: wire.TDiscover, ID: 1, From: "x"},
		{Type: wire.TOut, ID: 2, From: "x", TTL: time.Second, Tuple: tuple.T(tuple.String("big"), tuple.Bytes(payload))},
		{Type: wire.TDiscover, ID: 3, From: "x"},
	}
	var stream []byte
	var want []*wire.Message
	for _, m := range msgs {
		stream = append(stream, frame(m)...)
		d, err := wire.Decode(wire.Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	got, met, conn := readScript(t, io.EOF, opened(stream))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %d messages around a %d-byte frame, want the 3 sent", len(got), len(payload))
	}
	if max := (len(stream)+readBufSize-1)/readBufSize + 1; conn.reads > max {
		t.Fatalf("%d socket reads for %d bytes, want at most %d", conn.reads, len(stream), max)
	}
	wantCounters(t, met, 0, 0)
}

// TestReadFramesGiveEachMessageItsOwnBytes is the dedicated-buffer rule:
// a decoded message aliases its frame for life (tuple fields, relay
// payloads), so what it aliases must be its own copy, never the
// connection's read buffer it was decoded from. Each frame arrives in a
// read of its own and lands on the same buffer offsets as the one before:
// earlier messages must survive later reads, and scribbling on one must
// not reach another.
func TestReadFramesGiveEachMessageItsOwnBytes(t *testing.T) {
	relay := func(id uint64, fill byte) *wire.Message {
		return &wire.Message{Type: wire.TRelay, ID: id, From: "x", Target: "y", Payload: bytes.Repeat([]byte{fill}, 64)}
	}
	out := &wire.Message{Type: wire.TOut, ID: 2, From: "x", TTL: time.Second,
		Tuple: tuple.T(tuple.String("k"), tuple.Bytes(bytes.Repeat([]byte{0xcc}, 64)))}
	got, _, _ := readScript(t, io.EOF, opened(frame(relay(1, 0xaa))), frame(out), frame(relay(3, 0xbb)))
	if len(got) != 3 {
		t.Fatalf("got %d messages, want 3", len(got))
	}
	if !bytes.Equal(got[0].Payload, relay(1, 0xaa).Payload) {
		t.Fatalf("the first message's payload changed under later reads: % x", got[0].Payload)
	}
	if !got[1].Tuple.Equal(out.Tuple) {
		t.Fatalf("the second message's tuple changed under a later read: %v", got[1].Tuple)
	}
	clear(got[0].Payload)
	if !bytes.Equal(got[2].Payload, relay(3, 0xbb).Payload) {
		t.Fatalf("writing to the first message's payload reached the third: % x", got[2].Payload)
	}
}

// TestReadFramesPreamble pins the preamble's failure classes: a stream
// that does not open with a valid preamble delivers no frame, whatever
// follows, and counts net.read_errors, except one that ends before its
// first byte, which sent nothing.
func TestReadFramesPreamble(t *testing.T) {
	f := frame(&wire.Message{Type: wire.TDiscover, ID: 1})
	pre := opened()
	with := func(i int, b byte) []byte {
		p := append([]byte(nil), pre...)
		p[i] = b
		return p
	}
	long := wire.Addr(bytes.Repeat([]byte{'h'}, maxAddr))
	for _, tc := range []struct {
		name       string
		chunks     [][]byte
		readErrors int64
	}{
		{"EOF before the preamble", nil, 0},
		{"EOF mid-preamble", [][]byte{pre[:4]}, 1},
		{"EOF mid-address", [][]byte{pre[:len(pre)-1]}, 1},
		{"no preamble", [][]byte{f, f}, 1},
		{"bad magic", [][]byte{with(1, 0x04), f}, 1},
		{"another stream version", [][]byte{with(2, streamVersion+1), f}, 1},
		{"empty address", [][]byte{{wire.MagicA, wire.MagicB, streamVersion, 0}}, 1},
		{"oversized address", [][]byte{appendPreamble(nil, long+"h"), f}, 1},
		{"address length overflowing 64 bits", [][]byte{append(pre[:3:3], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)}, 1},
	} {
		got, met, _ := readScript(t, io.EOF, tc.chunks...)
		if len(got) != 0 {
			t.Errorf("%s: %d frames delivered, want none", tc.name, len(got))
		}
		if n := met.Get(trace.CtrReadErrors); n != tc.readErrors {
			t.Errorf("%s: net.read_errors = %d, want %d", tc.name, n, tc.readErrors)
		}
	}
	got, met, _ := readScript(t, io.EOF, append(appendPreamble(nil, long), f...))
	if len(got) != 1 || got[0].From != long {
		t.Fatalf("a %d-byte address: delivered %d frames, want one from it", maxAddr, len(got))
	}
	wantCounters(t, met, 0, 0)
}

// TestSenderPerConnection: each connection's preamble names its own
// sender. Two senders interleaving into one receiver, each frame (From
// left empty on the wire) attributed to its sender.
func TestSenderPerConnection(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const per = 200
	senders := make([]*Transport, 2)
	var wg sync.WaitGroup
	for g := range senders {
		a, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		senders[g] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i + 1)
				if err := a.Send(b.Addr(), &wire.Message{Type: wire.TDiscover, ID: id, From: a.Addr()}); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}()
	}
	for n := 0; n < len(senders)*per; n++ {
		m := recvOne(t, b)
		if want := senders[(m.ID-1)/per].Addr(); m.From != want {
			t.Fatalf("frame %d attributed to %q, sent by %q", m.ID, m.From, want)
		}
	}
	wg.Wait()
}

// FuzzReadFrames feeds arbitrary bytes through a connection's reader over
// net.Pipe: it never panics, and every frame it delivers names a sender.
func FuzzReadFrames(f *testing.F) {
	corpus, _ := goldenStream(f, 8)
	f.Add(corpus)
	f.Add(opened(frame(&wire.Message{Type: wire.TAccept, ID: 1, HoldID: 2})))
	f.Add(frame(&wire.Message{Type: wire.TDiscover, ID: 1, From: "x"}))
	f.Add(appendPreamble(nil, ""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &Transport{ctr: newCounters(&trace.Metrics{}), inbox: make(chan *wire.Message, 4096)}
		rx, tx := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = tx.Write(data)
			tx.Close()
		}()
		tr.readFrames(rx)
		rx.Close() // a reader that hung up early unblocks the writer
		<-wrote
		for len(tr.inbox) > 0 {
			if m := <-tr.inbox; m.From == "" {
				t.Fatalf("delivered a frame with no sender: %+v", m)
			}
		}
	})
}
