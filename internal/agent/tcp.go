package agent

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPNode is a networked agent endpoint: it listens for binary frames (see
// AppendFrame) and dials peers on demand. Connections to peers are cached and
// re-established on failure. Each outbound connection encodes into its own
// reused buffer under its own lock, and each inbound one reads through a
// reused buffer and interns the names its frames repeat, so a typed message
// crosses a link without allocating. All methods are safe for concurrent
// use.
type TCPNode struct {
	name string

	mu       sync.Mutex
	handlers map[string]Handler
	peers    map[string]string    // agent name -> address
	conns    map[string]*peerConn // address -> cached outbound connection
	accepted map[net.Conn]bool    // inbound connections, closed on shutdown
	listener net.Listener
	instr    *transportInstruments
	closed   bool
	wg       sync.WaitGroup
}

// NewTCPNode starts a node listening on addr (use "127.0.0.1:0" to pick a
// free port). The node's own agents are attached with Register.
func NewTCPNode(name, addr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		name:     name,
		handlers: make(map[string]Handler),
		peers:    make(map[string]string),
		conns:    make(map[string]*peerConn),
		accepted: make(map[net.Conn]bool),
		listener: ln,
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *TCPNode) Addr() string { return n.listener.Addr().String() }

// AddPeer maps an agent name to the node address hosting it. Multiple agent
// names may map to the same address.
func (n *TCPNode) AddPeer(agentName, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[agentName] = addr
}

// Register implements Transport for agents hosted on this node.
func (n *TCPNode) Register(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[name] = h
}

// Send implements Transport: local recipients are delivered directly,
// remote ones over TCP using the peer table.
func (n *TCPNode) Send(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("agent: node closed")
	}
	instr := n.instr
	if h, ok := n.handlers[msg.To]; ok {
		n.mu.Unlock()
		start := time.Now()
		h(msg)
		instr.send(len(msg.Payload), time.Since(start), nil)
		return nil
	}
	addr, ok := n.peers[msg.To]
	n.mu.Unlock()
	if !ok {
		err := fmt.Errorf("agent: unknown recipient %q", msg.To)
		instr.send(0, 0, err)
		return err
	}
	return n.sendTo(addr, msg)
}

// peerConn is one cached outbound connection and the buffer its frames are
// encoded into; mu serializes the encode and write.
type peerConn struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte
}

// write frames msg, which passed checkFrame, into the connection's buffer
// and writes it, returning the frame's size.
func (pc *peerConn) write(msg Message) (int, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.buf = appendFrame(pc.buf[:0], msg)
	_, err := pc.c.Write(pc.buf)
	return len(pc.buf), err
}

// sendTo writes msg to addr, dialing or reusing a cached connection and
// retrying once on a stale connection. A message that cannot be framed
// fails without a retry.
func (n *TCPNode) sendTo(addr string, msg Message) error {
	n.mu.Lock()
	instr := n.instr
	n.mu.Unlock()
	if err := checkFrame(msg); err != nil {
		instr.send(0, 0, err)
		return err
	}
	start := time.Now()
	for attempt := 0; attempt < 2; attempt++ {
		pc, err := n.conn(addr)
		if err != nil {
			instr.send(0, 0, err)
			return err
		}
		if size, err := pc.write(msg); err == nil {
			instr.send(size, time.Since(start), nil)
			return nil
		}
		n.dropConn(addr, pc)
	}
	err := fmt.Errorf("agent: send to %s failed", addr)
	instr.send(0, 0, err)
	return err
}

func (n *TCPNode) conn(addr string) (*peerConn, error) {
	n.mu.Lock()
	if pc, ok := n.conns[addr]; ok {
		n.mu.Unlock()
		return pc, nil
	}
	n.mu.Unlock()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: dial %s: %w", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return nil, errors.New("agent: node closed")
	}
	if existing, ok := n.conns[addr]; ok {
		c.Close()
		return existing, nil
	}
	pc := &peerConn{c: c}
	n.conns[addr] = pc
	return pc, nil
}

// dropConn closes and forgets pc, unless another sender already replaced it.
func (n *TCPNode) dropConn(addr string, pc *peerConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.conns[addr] == pc {
		pc.c.Close()
		delete(n.conns, addr)
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 64*1024)
	var buf []byte
	names := make(FrameNames)
	for {
		var err error
		// A read error ends the link: a closed connection, a stream cut
		// mid-frame, or a length over MaxFrameBytes, after which the stream
		// cannot resync.
		if buf, err = readFrame(r, buf); err != nil {
			return
		}
		msg, err := DecodeFrame(buf, names)
		if err != nil {
			continue // skip a malformed frame rather than killing the link
		}
		n.mu.Lock()
		h, ok := n.handlers[msg.To]
		instr := n.instr
		n.mu.Unlock()
		if ok {
			instr.recv(len(buf))
			instr.queue(1)
			h(msg)
			instr.queue(-1)
		}
	}
}

// Close shuts down the listener and all connections and waits for reader
// goroutines to exit.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	err := n.listener.Close()
	for addr, pc := range n.conns {
		pc.c.Close()
		delete(n.conns, addr)
	}
	for c := range n.accepted {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}
