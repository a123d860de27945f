package netsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"rpol/internal/obs"
)

// TCPHub is the message fabric standing in for the paper's TLS channels
// between the manager and its workers: a star-topology router that endpoints
// join over TCP. Each client registers a unique name and then exchanges
// Message frames, with the hub routing by destination name and metering
// every delivered byte.
//
// Frame format: 4-byte big-endian length prefix followed by a binary
// Message body (see writeFrame). The
// first frame a client sends is its registration: a Message whose Kind is
// "register" and whose From is the client's name.
type TCPHub struct {
	listener net.Listener
	meter    *Meter

	mu      sync.Mutex
	clients map[string]*hubClient
	closed  bool

	// Fault injection (nil plan = none); linkSeq orders each directed
	// link's routed messages for the plan's deterministic decisions.
	faults  *FaultPlan
	clock   obs.Clock
	linkSeq map[string]uint64

	// frames recycles the read buffers of routed frames (*[]byte). The hub
	// never hands a frame body to anyone but its own writer, so a buffer
	// goes back once the destination's writer has flushed it, or on any
	// path that drops the frame.
	frames sync.Pool

	wg sync.WaitGroup
}

type hubClient struct {
	name string
	conn net.Conn
	out  chan hubFrame
}

// hubFrame is a queued message and the pooled buffer its payload aliases
// (nil for the hub's own messages, which carry none).
type hubFrame struct {
	msg Message
	buf *[]byte
}

// release returns a routed frame's buffer to the pool; the frame's payload
// must not be read afterwards.
func (h *TCPHub) release(f hubFrame) {
	if f.buf != nil {
		h.frames.Put(f.buf)
	}
}

// queueDepth bounds each client's queued messages, at the hub and in its
// endpoint's shared queue. The pool protocol is strictly request/response per
// epoch, so the depth only needs to cover one round of fan-in from all peers.
// A claimed queue holds one exchange's replies, so claimDepth is small.
const (
	queueDepth = 1024
	claimDepth = 16
)

// Reserved message kinds: the registration handshake, and the hub's notice
// that its fault plan dropped a frame.
const (
	KindRegister    = "register"
	KindRegistered  = "registered"
	KindRegisterErr = "register-error"
	KindLost        = "lost"
)

// maxFrameSize bounds a single frame to guard against corrupt length
// prefixes.
const maxFrameSize = 64 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("netsim: frame too large")

// errBadFrame is returned when a frame body is not the binary frame format.
var errBadFrame = errors.New("netsim: malformed frame")

// NewTCPHub starts a hub listening on addr (e.g. "127.0.0.1:0").
func NewTCPHub(addr string) (*TCPHub, error) {
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim hub: %w", err)
	}
	h := &TCPHub{
		listener: listener,
		meter:    NewMeter(),
		clients:  make(map[string]*hubClient),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listening address.
func (h *TCPHub) Addr() string { return h.listener.Addr().String() }

// Meter returns the hub's byte meter.
func (h *TCPHub) Meter() *Meter { return h.meter }

// Observe mirrors the hub's traffic into reg under net_tcp_* counters. Drops
// and injected faults are counted nowhere else, so a hub that is never
// observed does not record them.
func (h *TCPHub) Observe(reg *obs.Registry) { h.meter.Attach(reg) }

// InjectFaults applies a deterministic fault plan to every subsequently
// routed message (registration handshakes are exempt — a plan describes a
// faulty network, not a refusing hub); each frame it drops is reported to
// both ends (see notifyLost). clock is the logical clock injected delays
// advance; nil makes delays accounting-only. A nil plan restores fault-free
// routing.
func (h *TCPHub) InjectFaults(plan *FaultPlan, clock obs.Clock) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faults = plan
	h.clock = clock
	if plan != nil && h.linkSeq == nil {
		h.linkSeq = make(map[string]uint64)
	}
}

// Close shuts the hub and all client connections down and waits for its
// goroutines to exit.
func (h *TCPHub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.wg.Wait()
		return
	}
	h.closed = true
	_ = h.listener.Close()
	for _, c := range h.clients {
		_ = c.conn.Close()
		close(c.out)
	}
	h.clients = make(map[string]*hubClient)
	h.mu.Unlock()
	h.wg.Wait()
}

func (h *TCPHub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.listener.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

// serveConn handles one client: registration, then routing its frames.
func (h *TCPHub) serveConn(conn net.Conn) {
	defer h.wg.Done()
	reader := bufio.NewReader(conn)
	reg, err := readFrame(reader, nil, nil)
	if err != nil || reg.Kind != KindRegister || reg.From == "" {
		_ = conn.Close()
		return
	}
	// The registration handshake is real traffic too: without this the
	// hub's accounting silently understates every connection by two frames.
	h.meter.Record(KindRegister, reg.Size())
	client := &hubClient{name: reg.From, conn: conn, out: make(chan hubFrame, queueDepth)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	if _, exists := h.clients[client.name]; exists {
		h.mu.Unlock()
		// Refuse the duplicate explicitly so the dialer fails fast.
		refusal := Message{To: reg.From, Kind: KindRegisterErr, Payload: []byte("name already registered")}
		w := bufio.NewWriter(conn)
		_ = writeFrame(w, refusal)
		_ = w.Flush()
		h.meter.Record(KindRegisterErr, refusal.Size())
		_ = conn.Close()
		return
	}
	h.clients[client.name] = client
	// Registration is acknowledged synchronously: the dialer blocks until
	// this ack arrives, so a message sent right after DialHub returns can
	// never race the hub's routing table. Enqueued under the lock so a
	// concurrent Close cannot close the queue first.
	ack := Message{To: client.name, Kind: KindRegistered}
	//rpolvet:ignore locksend the queue was created above with queueDepth capacity and is not yet visible to any other goroutine, so this send cannot block; the lock orders it before a concurrent Close can close the queue
	client.out <- hubFrame{msg: ack}
	h.meter.Record(KindRegistered, ack.Size())
	h.mu.Unlock()

	// Writer: drain the client's outbound queue onto the socket.
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w := bufio.NewWriter(conn)
		for f := range client.out {
			err := writeFrame(w, f.msg)
			if err == nil {
				err = w.Flush()
			}
			h.release(f)
			if err != nil {
				return
			}
		}
	}()

	// Reader: route inbound frames until the connection drops.
	names := make(map[string]string)
	for {
		buf, _ := h.frames.Get().(*[]byte)
		if buf == nil {
			buf = new([]byte)
		}
		msg, err := readFrame(reader, buf, names)
		if err != nil {
			h.frames.Put(buf)
			break
		}
		msg.From = client.name // the hub authenticates the sender
		f := hubFrame{msg: msg, buf: buf}
		if !h.route(f) {
			h.release(f)
		}
	}
	h.dropClient(client.name)
}

// route meters f and enqueues it for its destination's writer, which then
// owns f's buffer; false means the frame was dropped and the caller still
// does.
func (h *TCPHub) route(f hubFrame) bool {
	msg := f.msg
	// Fault events publish only after the critical section: this defer is
	// registered before the Lock below, so LIFO ordering runs it after the
	// deferred Unlock, keeping the observer fan-out outside the lock.
	var pendingFaults []string
	defer func() {
		for _, what := range pendingFaults {
			publishFault(what, msg.Kind, msg.From, msg.To)
		}
	}()
	// The lock is held across the (non-blocking) enqueue so that a
	// concurrent dropClient cannot close the destination queue mid-send.
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.faults != nil {
		link := msg.From + "\x00" + msg.To
		n := h.linkSeq[link]
		h.linkSeq[link] = n + 1
		fault := h.faults.Decide(msg.From, msg.To, n)
		if fault.Drop {
			h.meter.RecordInjectedDrop(msg.Size())
			pendingFaults = append(pendingFaults, "drop")
			h.notifyLost(msg)
			return false
		}
		if fault.Delay > 0 {
			h.meter.RecordInjectedDelay()
			pendingFaults = append(pendingFaults, "delay")
			if adv, ok := h.clock.(advancer); ok {
				adv.Advance(fault.Delay)
			}
		}
	}
	dst, ok := h.clients[msg.To]
	if !ok {
		// Unknown destination: drop (as a datagram fabric would) and count
		// the drop in the meter's attached counters.
		h.meter.RecordDrop(msg.Size())
		return false
	}
	select {
	case dst.out <- f:
		h.meter.Record(msg.Kind, msg.Size())
		return true
	default:
		// Destination queue full: drop rather than block the router, and
		// count the drop in the meter's attached counters.
		h.meter.RecordDrop(msg.Size())
		return false
	}
}

// notifyLost tells both ends of a frame the plan dropped that it is gone: a
// payload-free KindLost frame carrying its Seq, from the other end. The
// notice stands for the timer a caller on a real network would run, so it is
// not metered, no plan applies to it, and one that finds a queue full or its
// client gone is not sent.
func (h *TCPHub) notifyLost(msg Message) {
	for _, n := range [2]Message{{From: msg.To, To: msg.From}, {From: msg.From, To: msg.To}} {
		if c, ok := h.clients[n.To]; ok {
			n.Kind, n.Seq = KindLost, msg.Seq
			select {
			case c.out <- hubFrame{msg: n}:
			default:
			}
		}
	}
}

func (h *TCPHub) dropClient(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if c, ok := h.clients[name]; ok {
		delete(h.clients, name)
		_ = c.conn.Close()
		close(c.out)
	}
}

// Binary frame body format (after the 4-byte big-endian length prefix):
//
//	[0] magic 0xBF
//	[1] version 1
//	from, to, kind as uvarint-length-prefixed strings, seq as uvarint,
//	then the payload as the remainder of the frame — written straight from
//	the caller's buffer and aliased out of the read buffer on receive, so a
//	bulky payload is never copied into an intermediate frame encoding.
//
// Any other body — a JSON one included — is errBadFrame.
const (
	frameMagic   = 0xBF
	frameVersion = 1
)

func appendFrameString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// writeFrame buffers one frame on w; the caller flushes. The header is built
// in w's own spare buffer space, so a frame costs no allocation.
func writeFrame(w *bufio.Writer, msg Message) error {
	// Fast pre-check so the header below is never built for a frame that
	// cannot fit.
	if len(msg.Payload) > maxFrameSize {
		return fmt.Errorf("%d payload bytes: %w", len(msg.Payload), ErrFrameTooLarge)
	}
	hdr := append(w.AvailableBuffer(), 0, 0, 0, 0, frameMagic, frameVersion)
	hdr = appendFrameString(hdr, msg.From)
	hdr = appendFrameString(hdr, msg.To)
	hdr = appendFrameString(hdr, msg.Kind)
	hdr = binary.AppendUvarint(hdr, msg.Seq)
	// Reject oversized frames before writing a single byte: maxFrameSize is
	// well under math.MaxUint32, so this one check also rules out silently
	// truncating the uint32 length prefix — and because nothing has been
	// handed to w yet, the connection stays usable after the error.
	total := len(hdr) - 4 + len(msg.Payload)
	if total > maxFrameSize {
		return fmt.Errorf("%d bytes: %w", total, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(total))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(msg.Payload) == 0 {
		return nil
	}
	_, err := w.Write(msg.Payload)
	return err
}

// readFrame reads one frame. With a nil buf the body is freshly allocated
// and the returned payload, which aliases it, belongs to the caller; with a
// caller-owned buf the body is read into *buf (grown when too small) and the
// payload is valid only until the caller reuses it. A non-nil names interns
// the header strings; see decodeFrame.
func readFrame(r io.Reader, buf *[]byte, names map[string]string) (Message, error) {
	// The length prefix is read into the frame buffer too: a local array
	// would escape through io.Reader and cost an allocation per frame.
	if buf == nil {
		buf = new([]byte)
	}
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, (*buf)[:4]); err != nil {
		return Message{}, err
	}
	size := binary.BigEndian.Uint32((*buf)[:4])
	if size > maxFrameSize {
		return Message{}, fmt.Errorf("%d bytes: %w", size, ErrFrameTooLarge)
	}
	if uint32(cap(*buf)) < size {
		// The spare room lets the next frame of the same message, whose Seq
		// may take more bytes, reuse the buffer.
		*buf = make([]byte, size, int(size)+binary.MaxVarintLen64)
	}
	data := (*buf)[:size]
	if _, err := io.ReadFull(r, data); err != nil {
		return Message{}, err
	}
	return decodeFrame(data, names)
}

// maxNames bounds one reader's interned header strings, so a peer that sends
// ever new kinds costs allocations, not memory.
const maxNames = 256

// decodeFrame parses a binary frame body. The payload aliases data; sender,
// destination and kind are copied out, or, with a non-nil names, looked up in
// it and added when new, so a connection's steady traffic decodes without
// allocating.
func decodeFrame(data []byte, names map[string]string) (Message, error) {
	if len(data) < 2 || data[0] != frameMagic {
		return Message{}, fmt.Errorf("netsim frame: unrecognized format: %w", errBadFrame)
	}
	if data[1] != frameVersion {
		return Message{}, fmt.Errorf("netsim frame: unsupported version %d: %w", data[1], errBadFrame)
	}
	off := 2
	next := func() (string, bool) {
		n, w := binary.Uvarint(data[off:])
		if w <= 0 || n > uint64(len(data)-off-w) {
			return "", false
		}
		off += w
		b := data[off : off+int(n)]
		off += int(n)
		if s, ok := names[string(b)]; ok {
			return s, true
		}
		s := string(b)
		if names != nil && len(names) < maxNames {
			names[s] = s
		}
		return s, true
	}
	var msg Message
	for _, field := range [...]*string{&msg.From, &msg.To, &msg.Kind} {
		var ok bool
		if *field, ok = next(); !ok {
			return Message{}, fmt.Errorf("netsim frame: truncated header: %w", errBadFrame)
		}
	}
	seq, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return Message{}, fmt.Errorf("netsim frame: truncated seq: %w", errBadFrame)
	}
	msg.Seq = seq
	off += w
	if off < len(data) {
		msg.Payload = data[off:]
	}
	return msg, nil
}

// TCPEndpoint is a client connection to a TCPHub. A background pump reads
// every frame off the socket and hands it to its sender's claimed Queue, or
// else to the shared queue that Recv serves; it never waits on a queue, so no
// peer can stall delivery to another's, and a frame that finds its queue
// full is dropped. Send and SendSeq write the whole frame to the socket
// before returning, so a caller may reuse its payload buffer for the next
// message.
//
// A received message's payload aliases one of the endpoint's frame buffers,
// and is the caller's until it hands the message back with Release, once it
// has decoded what it needs; the pump then reads a later frame into the same
// buffer. A message never released stays valid and is left to the
// collector.
type TCPEndpoint struct {
	name string
	conn net.Conn

	writeMu sync.Mutex
	writer  *bufio.Writer
	reader  *bufio.Reader
	names   map[string]string // the pump's interned header strings

	// mu guards the claimed queues and readErr, which the pump sets before
	// it closes every queue; Queue.Recv reads it once it sees its queue
	// closed, which happens after the write.
	mu      sync.Mutex
	inbox   *Queue
	queues  map[string]*Queue
	readErr error
	// frames is the free list of released frame buffers (*[]byte) the pump
	// reads into before it allocates one.
	frames chan *[]byte
}

// Queue is the frames an endpoint received from one claimed peer, or the
// shared rest.
type Queue struct {
	ch chan Message
	ep *TCPEndpoint
}

// Recv blocks until a frame is queued or the connection has closed.
func (q *Queue) Recv() (Message, error) {
	msg, ok := <-q.ch
	if !ok {
		return Message{}, fmt.Errorf("netsim recv: %w", q.ep.readErr)
	}
	return msg, nil
}

func newEndpoint(name string, conn net.Conn) *TCPEndpoint {
	e := &TCPEndpoint{
		name:   name,
		conn:   conn,
		writer: bufio.NewWriter(conn),
		reader: bufio.NewReader(conn),
		names:  make(map[string]string),
		queues: make(map[string]*Queue),
		frames: make(chan *[]byte, endpointFrames),
	}
	e.inbox = &Queue{ch: make(chan Message, queueDepth), ep: e}
	return e
}

// DialHub connects to the hub at addr and registers under name.
func DialHub(addr, name string) (*TCPEndpoint, error) {
	if name == "" {
		return nil, errors.New("netsim: endpoint needs a name")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim dial: %w", err)
	}
	ep := newEndpoint(name, conn)
	if err := ep.writeMsg(Message{From: name, Kind: KindRegister}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("netsim register: %w", err)
	}
	ack, err := readFrame(ep.reader, nil, nil)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("netsim register: %w", err)
	}
	if ack.Kind != KindRegistered {
		_ = conn.Close()
		return nil, fmt.Errorf("netsim register %q: %s", name, ack.Payload)
	}
	go ep.pump()
	return ep, nil
}

// Claim gives the frames peer sends from now on a queue of their own, which
// the caller receives from instead of Recv. A peer is claimed at most once.
func (e *TCPEndpoint) Claim(peer string) (*Queue, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.queues[peer]; ok {
		return nil, fmt.Errorf("netsim: %s already claimed on %s", peer, e.name)
	}
	q := &Queue{ch: make(chan Message, claimDepth), ep: e}
	if e.readErr != nil {
		close(q.ch)
	}
	e.queues[peer] = q
	return q, nil
}

// pump moves frames from the socket into their queues until a read fails,
// then closes the connection, publishes the terminal error and closes every
// queue. A lost notice goes only to a claimed queue: Recv callers never see
// one.
func (e *TCPEndpoint) pump() {
	for {
		var buf *[]byte
		select {
		case buf = <-e.frames:
		default:
			buf = new([]byte)
		}
		msg, err := readFrame(e.reader, buf, e.names)
		if err != nil {
			_ = e.conn.Close()
			e.mu.Lock()
			e.readErr = err
			close(e.inbox.ch)
			for _, q := range e.queues {
				close(q.ch)
			}
			e.mu.Unlock()
			return
		}
		msg.buf = buf
		e.mu.Lock()
		q := e.queues[msg.From]
		e.mu.Unlock()
		if q == nil && msg.Kind != KindLost {
			q = e.inbox
		}
		if q == nil {
			e.Release(msg)
			continue
		}
		select {
		case q.ch <- msg:
		default:
			e.Release(msg)
		}
	}
}

// endpointFrames bounds the released frame buffers an endpoint keeps. The
// pool protocol has one request or reply in flight per peer, so the pump
// reads ahead of its consumers by a frame or two each; a buffer released
// into a full list is left to the collector.
const endpointFrames = 4

// Release hands msg's frame buffer back to the endpoint that received it, to
// read a later frame into: msg.Payload must not be read afterwards, and a
// message is released at most once. A message no endpoint received is
// ignored.
func (e *TCPEndpoint) Release(msg Message) {
	if msg.buf == nil {
		return
	}
	select {
	case e.frames <- msg.buf:
	default:
	}
}

func (e *TCPEndpoint) writeMsg(msg Message) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := writeFrame(e.writer, msg); err != nil {
		return err
	}
	return e.writer.Flush()
}

// Send delivers a message through the hub.
func (e *TCPEndpoint) Send(to, kind string, payload []byte) error {
	return e.SendSeq(to, kind, 0, payload)
}

// SendSeq delivers a message carrying the given correlation number.
func (e *TCPEndpoint) SendSeq(to, kind string, seq uint64, payload []byte) error {
	return e.writeMsg(Message{From: e.name, To: to, Kind: kind, Payload: payload, Seq: seq})
}

// Recv blocks until a frame from an unclaimed peer arrives or the connection
// closes.
func (e *TCPEndpoint) Recv() (Message, error) { return e.inbox.Recv() }

// Close terminates the connection; the pump then closes every queue.
func (e *TCPEndpoint) Close() error { return e.conn.Close() }
