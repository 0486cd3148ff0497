package agent

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// MaxFrameBytes bounds a single line-delimited frame on the wire. Frames
// beyond it are rejected at both ends: EncodeFrame refuses to produce them
// and the read loop's scanner (and DecodeFrame) refuses to accept them, so
// one huge message can't wedge a link or balloon a reader's memory.
const MaxFrameBytes = 4 * 1024 * 1024

// EncodeFrame serializes msg as one newline-terminated JSON frame, the unit
// the TCP transport writes. It fails on unroutable messages (empty Type or
// To) and on frames that would exceed MaxFrameBytes.
func EncodeFrame(msg Message) ([]byte, error) {
	if msg.Type == "" || msg.To == "" {
		return nil, fmt.Errorf("agent: unroutable frame (type %q, to %q)", msg.Type, msg.To)
	}
	data, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("agent: encode message: %w", err)
	}
	if len(data)+1 > MaxFrameBytes {
		return nil, fmt.Errorf("agent: frame %d bytes exceeds limit %d", len(data)+1, MaxFrameBytes)
	}
	return append(data, '\n'), nil
}

// DecodeFrame parses one frame (a single line, with or without its trailing
// newline) into a Message. Malformed JSON, truncated frames, embedded extra
// lines, oversized frames and unroutable messages are all errors — never
// panics — so a hostile or corrupted peer can at worst have its frames
// discarded.
func DecodeFrame(frame []byte) (Message, error) {
	frame = bytes.TrimSuffix(frame, []byte("\n"))
	frame = bytes.TrimSuffix(frame, []byte("\r"))
	if len(frame) > MaxFrameBytes {
		return Message{}, fmt.Errorf("agent: frame %d bytes exceeds limit %d", len(frame), MaxFrameBytes)
	}
	if len(bytes.TrimSpace(frame)) == 0 {
		return Message{}, errors.New("agent: empty frame")
	}
	if i := bytes.IndexByte(frame, '\n'); i >= 0 {
		return Message{}, fmt.Errorf("agent: frame contains interior newline at offset %d", i)
	}
	var msg Message
	if err := json.Unmarshal(frame, &msg); err != nil {
		return Message{}, fmt.Errorf("agent: decode frame: %w", err)
	}
	if msg.Type == "" || msg.To == "" {
		return Message{}, fmt.Errorf("agent: unroutable frame (type %q, to %q)", msg.Type, msg.To)
	}
	return msg, nil
}

// TCPNode is a networked agent endpoint: it listens for line-delimited JSON
// messages and dials peers on demand. Connections to peers are cached and
// re-established on failure. All methods are safe for concurrent use.
type TCPNode struct {
	name string

	mu       sync.Mutex
	handlers map[string]Handler
	peers    map[string]string   // agent name -> address
	conns    map[string]net.Conn // address -> cached outbound connection
	accepted map[net.Conn]bool   // inbound connections, closed on shutdown
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
		conns:    make(map[string]net.Conn),
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

// sendTo writes msg to addr, dialing or reusing a cached connection and
// retrying once on a stale connection.
func (n *TCPNode) sendTo(addr string, msg Message) error {
	n.mu.Lock()
	instr := n.instr
	n.mu.Unlock()
	data, err := EncodeFrame(msg)
	if err != nil {
		instr.send(0, 0, err)
		return err
	}
	start := time.Now()
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := n.conn(addr)
		if err != nil {
			instr.send(0, 0, err)
			return err
		}
		if _, err := conn.Write(data); err == nil {
			instr.send(len(data), time.Since(start), nil)
			return nil
		}
		n.dropConn(addr)
	}
	err = fmt.Errorf("agent: send to %s failed", addr)
	instr.send(0, 0, err)
	return err
}

func (n *TCPNode) conn(addr string) (net.Conn, error) {
	n.mu.Lock()
	if c, ok := n.conns[addr]; ok {
		n.mu.Unlock()
		return c, nil
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
	n.conns[addr] = c
	return c, nil
}

func (n *TCPNode) dropConn(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.conns[addr]; ok {
		c.Close()
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
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), MaxFrameBytes)
	for scanner.Scan() {
		frame := scanner.Bytes()
		msg, err := DecodeFrame(frame)
		if err != nil {
			continue // skip malformed frames rather than killing the link
		}
		n.mu.Lock()
		h, ok := n.handlers[msg.To]
		instr := n.instr
		n.mu.Unlock()
		if ok {
			instr.recv(len(frame))
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
	for addr, c := range n.conns {
		c.Close()
		delete(n.conns, addr)
	}
	for c := range n.accepted {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}
