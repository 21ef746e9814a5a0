package nettrans

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"distfdk/internal/fault"
)

// wireItem is one reliable frame queued on a link: the frame, its cached
// encoding (built on first write, reused verbatim on replay) and how many
// times it has been written (for the retransmit counter). chaos marks
// frames originated by this process's ranks — only those pass the wire
// fault layer, so injected schedules count occurrences in program send
// order regardless of how many hops a frame takes.
type wireItem struct {
	f      *frame
	enc    []byte
	writes int
	chaos  bool
}

// link is one reliable, reconnectable stream between this process and a
// peer process (workers hold exactly one, to the hub; the hub holds one
// per worker). Reliable frames get link-scoped sequence numbers and are
// retained until the peer's cumulative ack covers them; a reconnect
// replays everything unacked, and the receive side dedups by sequence
// number — so connection churn (or injected wire chaos) never loses,
// duplicates or reorders what the mpi layer observes.
type link struct {
	n    *Node
	proc int // peer proc id

	mu        sync.Mutex
	conn      net.Conn
	gen       int  // connection generation, guards stale reader callbacks
	engaged   bool // true once the link has ever been wanted (death windows apply)
	down      bool
	downSince time.Time
	dead      bool
	everUp    bool

	nextSeq   uint64 // last assigned outgoing sequence number
	pending   []*wireItem
	nextWrite int // pending[:nextWrite] written on the current conn
	// sentSeq is the highest sequence number the write loop has finished
	// with on the current connection generation — written, or dropped by
	// injected chaos. Heartbeats advertise it, never nextSeq: a frame that
	// is still queued must not look like a dropped tail to the peer.
	sentSeq uint64

	recvSeq  uint64 // highest contiguous incoming seq delivered
	lastRecv time.Time
	sinceAck int // reliable frames delivered since the last ack we sent

	wmu sync.Mutex // serialises raw conn writes (writer, heartbeats, acks)

	notify   chan struct{} // writer wake-up
	redial   chan struct{} // connector wake-up (worker links)
	stopOnce sync.Once
	stopped  chan struct{}
}

// ackEvery bounds how many delivered reliable frames may pass before the
// receiver volunteers a cumulative ack (heartbeats also carry one), which
// bounds the sender's replay buffer.
const ackEvery = 64

func newLink(n *Node, proc int) *link {
	return &link{n: n, proc: proc,
		notify:  make(chan struct{}, 1),
		redial:  make(chan struct{}, 1),
		stopped: make(chan struct{}),
		down:    true,
	}
}

func (l *link) bump(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// engage starts the link's goroutines (writer, death monitor, and the
// dial loop for worker links). Idempotent.
func (l *link) engage() {
	l.mu.Lock()
	if l.engaged {
		l.mu.Unlock()
		return
	}
	l.engaged = true
	l.downSince = time.Now()
	l.lastRecv = time.Now()
	l.mu.Unlock()
	go l.writeLoop()
	go l.monitorLoop()
	go l.heartbeatLoop()
	if !l.n.isHub() {
		go l.dialLoop()
		l.bump(l.redial)
	}
}

func (l *link) stop() {
	l.stopOnce.Do(func() { close(l.stopped) })
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
}

// enqueue queues a reliable frame, assigning its sequence number. Returns
// false when the peer is already declared dead.
func (l *link) enqueue(f *frame, chaos bool) bool {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return false
	}
	l.nextSeq++
	f.seq = l.nextSeq
	l.pending = append(l.pending, &wireItem{f: f, chaos: chaos})
	l.mu.Unlock()
	l.bump(l.notify)
	return true
}

// handleAck prunes frames the peer has durably received.
func (l *link) handleAck(ack uint64) {
	l.mu.Lock()
	drop := 0
	for drop < len(l.pending) && l.pending[drop].f.seq <= ack {
		drop++
	}
	if drop > 0 {
		l.pending = append([]*wireItem(nil), l.pending[drop:]...)
		l.nextWrite -= drop
		if l.nextWrite < 0 {
			l.nextWrite = 0
		}
	}
	l.mu.Unlock()
}

// attach installs a fresh connection after a successful handshake:
// everything the peer has not acked is scheduled for replay, in order,
// before new traffic.
func (l *link) attach(conn net.Conn, peerAck uint64) {
	l.handleAck(peerAck)
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.gen++
	gen := l.gen
	l.down = false
	l.nextWrite = 0 // replay every surviving pending frame
	l.sentSeq = 0
	l.lastRecv = time.Now()
	if l.everUp {
		l.n.st.reconnects.Inc()
	}
	l.everUp = true
	l.mu.Unlock()
	go l.readLoop(conn, gen)
	l.bump(l.notify)
}

// connBroken tears down the generation's connection (idempotent per
// generation; stale callers are ignored) and kicks the reconnect path.
func (l *link) connBroken(gen int) {
	l.mu.Lock()
	if gen != l.gen || l.conn == nil {
		l.mu.Unlock()
		return
	}
	l.conn.Close()
	l.conn = nil
	l.down = true
	l.downSince = time.Now()
	l.mu.Unlock()
	l.bump(l.redial)
}

// curConn returns the live connection and its generation (nil when down).
func (l *link) curConn() (net.Conn, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn, l.gen
}

// finished records that the write loop is done with frame seq on
// connection generation gen. A stale generation's frame says nothing about
// the current connection, which replays it.
func (l *link) finished(gen int, seq uint64) {
	l.mu.Lock()
	if gen == l.gen && seq > l.sentSeq {
		l.sentSeq = seq
	}
	l.mu.Unlock()
}

// rawWrite writes pre-encoded bytes on conn under the write mutex with
// the configured write deadline; on failure the generation's connection
// is torn down.
func (l *link) rawWrite(conn net.Conn, gen int, b []byte) bool {
	l.wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(l.n.cfg.WriteTimeout))
	_, err := conn.Write(b)
	l.wmu.Unlock()
	if err != nil {
		l.connBroken(gen)
		return false
	}
	return true
}

// writeLoop drains pending frames onto whatever connection is live,
// applying the wire fault layer to frames this process originated.
func (l *link) writeLoop() {
	for {
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			return
		}
		conn := l.conn
		gen := l.gen
		var item *wireItem
		if conn != nil && l.nextWrite < len(l.pending) {
			item = l.pending[l.nextWrite]
			l.nextWrite++
		}
		l.mu.Unlock()
		if item == nil {
			select {
			case <-l.notify:
				continue
			case <-l.stopped:
				return
			}
		}
		if item.enc == nil {
			item.enc = encodeFrame(item.f)
		}
		retransmit := item.writes > 0
		item.writes++
		if retransmit {
			l.n.st.retransmits.Inc()
		}

		if inj := l.n.cfg.Injector; inj != nil && item.chaos {
			rank := int(item.f.src)
			inj.Hit(fault.OpFrameDelay, rank) // stalls when a delay rule matches
			if inj.Hit(fault.OpSever, rank) != nil {
				// Close before writing: the frame stays pending and rides
				// the post-reconnect replay.
				l.connBroken(gen)
				continue
			}
			if inj.Hit(fault.OpFrameDrop, rank) != nil {
				// Never hits the socket; the peer detects the sequence gap
				// (next frame or heartbeat cursor) and forces a
				// reconnect-replay.
				l.n.st.framesSent.Inc()
				l.finished(gen, item.f.seq)
				continue
			}
			if inj.Hit(fault.OpFrameCorrupt, rank) != nil {
				mut := append([]byte(nil), item.enc...)
				mut[len(mut)-1] ^= 0x40 // inside the CRC trailer
				if l.rawWrite(conn, gen, mut) {
					l.finished(gen, item.f.seq)
				}
				l.n.st.framesSent.Inc()
				continue // peer CRC-fails, reconnects, replay delivers it
			}
			if inj.Hit(fault.OpFrameDup, rank) != nil {
				if l.rawWrite(conn, gen, item.enc) {
					l.rawWrite(conn, gen, item.enc)
					l.n.st.framesSent.Add(2)
					l.finished(gen, item.f.seq)
				}
				continue
			}
		}
		if l.rawWrite(conn, gen, item.enc) {
			l.n.st.framesSent.Inc()
			l.finished(gen, item.f.seq)
		}
	}
}

// sendUnreliable writes a sequence-less frame (hello/heartbeat/ack)
// directly, outside the replay buffer.
func (l *link) sendUnreliable(f *frame) {
	conn, gen := l.curConn()
	if conn == nil {
		return
	}
	if l.rawWrite(conn, gen, encodeFrame(f)) {
		l.n.st.framesSent.Inc()
	}
}

// heartbeat emits the periodic liveness probe: the ack field carries the
// cumulative receive cursor, the seq field advertises the send cursor so
// a peer can detect silently dropped tails without waiting for more data.
// The cursor and the connection are read together: every frame up to the
// cursor was written to this connection before the heartbeat is.
func (l *link) heartbeat() {
	l.mu.Lock()
	conn, gen := l.conn, l.gen
	f := &frame{kind: kindHeartbeat, seq: l.sentSeq, ack: l.recvSeq}
	l.mu.Unlock()
	if conn != nil && l.rawWrite(conn, gen, encodeFrame(f)) {
		l.n.st.framesSent.Inc()
	}
}

func (l *link) heartbeatLoop() {
	t := time.NewTicker(l.n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.heartbeat()
		case <-l.stopped:
			return
		}
	}
}

// monitorLoop is the failure detector: a connected-but-silent peer gets
// its connection cycled (forcing the reconnect path to probe it), and a
// peer unreachable past DeathAfter is declared dead.
func (l *link) monitorLoop() {
	t := time.NewTicker(l.n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-l.stopped:
			return
		case <-t.C:
		}
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			return
		}
		now := time.Now()
		silent := now.Sub(l.lastRecv)
		downFor := time.Duration(0)
		if l.down {
			downFor = now.Sub(l.downSince)
		}
		gen := l.gen
		connected := l.conn != nil
		l.mu.Unlock()

		if connected && silent > 2*l.n.cfg.Heartbeat {
			l.n.st.heartbeatMisses.Inc()
		}
		if connected && silent > l.n.cfg.DeathAfter {
			// Half-open or wedged: cycle the connection so reconnect (and
			// its handshake) decides liveness.
			l.connBroken(gen)
			continue
		}
		if !connected && downFor > l.n.cfg.DeathAfter {
			l.declareDead()
			return
		}
	}
}

// declareDead marks the peer dead and notifies the node (idempotent).
func (l *link) declareDead() {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
	l.bump(l.notify)
	l.n.peerDead(l.proc)
}

func (l *link) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// readLoop decodes frames off one connection generation. Any decode
// error — torn tail, CRC mismatch, sequence gap — tears the connection
// down; the reconnect handshake's replay restores the stream.
func (l *link) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			if err == errCRC {
				l.n.st.crcErrors.Inc()
			}
			if err != io.EOF {
				_ = err
			}
			l.connBroken(gen)
			return
		}
		l.n.st.framesRecv.Inc()
		l.mu.Lock()
		l.lastRecv = time.Now()
		l.mu.Unlock()
		if f.ack > 0 {
			l.handleAck(f.ack)
		}
		if f.seq == 0 || f.kind == kindHeartbeat {
			// Heartbeats advertise the peer's send cursor in seq: a cursor
			// past what we've seen means the tail was dropped — force the
			// replay path instead of waiting for traffic.
			if f.kind == kindHeartbeat {
				l.mu.Lock()
				gap := f.seq > l.recvSeq
				l.mu.Unlock()
				if gap {
					l.connBroken(gen)
					return
				}
			}
			continue
		}
		l.mu.Lock()
		switch {
		case f.seq <= l.recvSeq:
			l.mu.Unlock()
			l.n.st.dupFrames.Inc()
			continue
		case f.seq == l.recvSeq+1:
			l.recvSeq++
			l.sinceAck++
			needAck := l.sinceAck >= ackEvery
			if needAck {
				l.sinceAck = 0
			}
			ack := l.recvSeq
			l.mu.Unlock()
			l.n.handleFrame(l.proc, f)
			if needAck {
				l.sendUnreliable(&frame{kind: kindHeartbeat, seq: 0, ack: ack})
			}
		default: // gap: an earlier frame never arrived
			l.mu.Unlock()
			l.connBroken(gen)
			return
		}
	}
}

// dialLoop (worker links only) keeps the hub connection alive: dial with
// capped exponential backoff whenever the link is down, run the hello
// handshake, and attach the accepted connection.
func (l *link) dialLoop() {
	backoff := l.n.cfg.DialBackoff
	for {
		select {
		case <-l.redial:
		case <-l.stopped:
			return
		}
		for {
			l.mu.Lock()
			need := l.conn == nil && !l.dead
			l.mu.Unlock()
			if !need {
				backoff = l.n.cfg.DialBackoff
				break
			}
			if l.dialOnce() {
				backoff = l.n.cfg.DialBackoff
				break
			}
			select {
			case <-time.After(backoff):
			case <-l.stopped:
				return
			}
			if backoff *= 2; backoff > l.n.cfg.MaxDialBackoff {
				backoff = l.n.cfg.MaxDialBackoff
			}
		}
	}
}

// dialOnce attempts one connect + hello handshake.
func (l *link) dialOnce() bool {
	conn, err := net.DialTimeout(l.n.cfg.Network, l.n.cfg.Addr, l.n.cfg.WriteTimeout)
	if err != nil {
		return false
	}
	l.mu.Lock()
	myAck := l.recvSeq
	l.mu.Unlock()
	hello := encodeFrame(&frame{kind: kindHello, ack: myAck,
		payload: mustEncodeInts(l.n.cfg.Proc)})
	conn.SetWriteDeadline(time.Now().Add(l.n.cfg.WriteTimeout))
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return false
	}
	conn.SetReadDeadline(time.Now().Add(l.n.cfg.WriteTimeout))
	// Read the reply without buffering past it: readFrame uses exact-size
	// reads, so the connection hands the next byte to the read loop.
	reply, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil || reply.kind != kindHelloAck {
		conn.Close()
		return false
	}
	accept, _ := decodeInts(reply.payload)
	if len(accept) < 1 || accept[0] != 1 {
		conn.Close()
		return false
	}
	l.attach(conn, reply.ack)
	return true
}

// mustEncodeInts encodes an []int control payload (cannot fail).
func mustEncodeInts(vs ...int) []byte {
	b, err := encodePayload(nil, vs)
	if err != nil {
		panic(err)
	}
	return b
}

// decodeInts decodes an []int control payload.
func decodeInts(b []byte) ([]int, bool) {
	v, err := decodePayload(b)
	if err != nil {
		return nil, false
	}
	out, ok := v.([]int)
	return out, ok
}
