package agent

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The wire frame, the unit the TCP transport writes and reads. All integers
// are little-endian:
//
//	u32      length of the rest of the frame
//	u8       version (frameVersion)
//	u8       body kind (BodyRaw, BodyProfile, BodyBudget, BodyRackEvent)
//	u64      span
//	u16+n    type, then from, then to: each a length and its bytes
//	body     raw:        the remaining bytes (the JSON payload)
//	         profile:    u16+n server, f64 median watts, requested, granted, core cost
//	         budget:     f64 watts
//	         rack event: i64 kind, f64 power, f64 limit
//
// A stream of frames cannot resync after a bad length, so a reader that
// meets a length over MaxFrameBytes closes the link. A frame whose length is
// in bounds but whose contents fail to decode is skipped.

// MaxFrameBytes bounds one frame on the wire, its length field included.
// AppendFrame refuses to produce a larger frame, and the read loop refuses
// a length field that announces one before reading its body, so one huge
// message can't wedge a link or balloon a reader's memory.
const MaxFrameBytes = 4 * 1024 * 1024

const (
	frameVersion = 1
	// frameHeader is the length field, version, body kind and span.
	frameHeader = 4 + 1 + 1 + 8
	// maxFrameString bounds a length-prefixed string.
	maxFrameString = math.MaxUint16
)

// frameSize returns the length of msg's frame.
func frameSize(msg Message) int {
	n := frameHeader + 6 + len(msg.Type) + len(msg.From) + len(msg.To)
	switch msg.Body {
	case BodyProfile:
		n += 2 + len(msg.Profile.Server) + 4*8
	case BodyBudget:
		n += 8
	case BodyRackEvent:
		n += 3 * 8
	default:
		n += len(msg.Payload)
	}
	return n
}

// checkFrame reports why msg cannot be framed: an unroutable envelope, a
// string too long for its length prefix, an unknown body kind, a typed body
// that is not finite, or a frame over MaxFrameBytes.
func checkFrame(msg Message) error {
	if msg.Type == "" || msg.To == "" {
		return fmt.Errorf("agent: unroutable frame (type %q, to %q)", msg.Type, msg.To)
	}
	for _, s := range [...]string{msg.Type, msg.From, msg.To, msg.Profile.Server} {
		if len(s) > maxFrameString {
			return fmt.Errorf("agent: frame string of %d bytes exceeds %d", len(s), maxFrameString)
		}
	}
	finite := true
	switch msg.Body {
	case BodyRaw:
	case BodyProfile:
		finite = msg.Profile.Finite()
	case BodyBudget:
		finite = msg.Budget.Finite()
	case BodyRackEvent:
		finite = msg.RackEvent.Finite()
	default:
		return fmt.Errorf("agent: unknown body kind %d", msg.Body)
	}
	if !finite {
		return fmt.Errorf("agent: %q body is not finite", msg.Type)
	}
	if n := frameSize(msg); n > MaxFrameBytes {
		return fmt.Errorf("agent: frame %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	return nil
}

// AppendFrame appends msg's frame to dst and returns the extended buffer.
// On an error, which checkFrame names, dst is returned unchanged.
func AppendFrame(dst []byte, msg Message) ([]byte, error) {
	if err := checkFrame(msg); err != nil {
		return dst, err
	}
	return appendFrame(dst, msg), nil
}

// appendFrame is AppendFrame without the checks.
func appendFrame(dst []byte, msg Message) []byte {
	n := frameSize(msg)
	dst = slices.Grow(dst, n)
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(n-4))
	dst = append(dst, frameVersion, byte(msg.Body))
	dst = le.AppendUint64(dst, msg.Span)
	dst = appendString(dst, msg.Type)
	dst = appendString(dst, msg.From)
	dst = appendString(dst, msg.To)
	switch msg.Body {
	case BodyProfile:
		p := msg.Profile
		dst = appendString(dst, p.Server)
		dst = appendFloats(dst, p.MedianWatts, p.Requested, p.Granted, p.CoreCost)
	case BodyBudget:
		dst = appendFloats(dst, msg.Budget.Watts)
	case BodyRackEvent:
		e := msg.RackEvent
		dst = le.AppendUint64(dst, uint64(e.Kind))
		dst = appendFloats(dst, e.Power, e.Limit)
	default:
		dst = append(dst, msg.Payload...)
	}
	return dst
}

// EncodeFrame returns msg's frame in a new buffer: AppendFrame(nil, msg).
func EncodeFrame(msg Message) ([]byte, error) {
	return AppendFrame(nil, msg)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, fs ...float64) []byte {
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

var errTruncated = errors.New("agent: truncated frame")

// FrameNames interns the strings one stream's frames repeat — message types
// and agent names — so a steady stream decodes without allocating them. It
// stops growing at maxFrameNames entries, after which a new string is
// allocated per frame, so a peer that sends endless distinct names costs
// allocations, not memory. A nil FrameNames interns nothing.
type FrameNames map[string]string

const maxFrameNames = 1024

func (n FrameNames) intern(b []byte) string {
	s, ok := n[string(b)]
	if !ok {
		s = string(b)
		if n != nil && len(n) < maxFrameNames {
			n[s] = s
		}
	}
	return s
}

// frameReader walks a frame's bytes; the first short read sets err, and
// every read after it returns zero. Strings come from names.
type frameReader struct {
	b     []byte
	err   error
	names FrameNames
}

func (r *frameReader) next(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errTruncated
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) u8() byte {
	if p := r.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *frameReader) str() string {
	p := r.next(2)
	if p == nil {
		return ""
	}
	return r.names.intern(r.next(int(binary.LittleEndian.Uint16(p))))
}

// DecodeFrame parses one whole frame, its length field included. It refuses,
// with an error and never a panic, a length over MaxFrameBytes, a truncated
// frame, bytes after the body, an unknown version or body kind, an empty
// type or to, and a typed body that is not finite — so a hostile or
// corrupted peer can at worst have its frames discarded. The strings it
// returns come from names, which the decode extends; a raw payload is copied
// out of frame, so the caller may reuse it.
func DecodeFrame(frame []byte, names FrameNames) (Message, error) {
	if len(frame) < 4 {
		return Message{}, errTruncated
	}
	n := int64(binary.LittleEndian.Uint32(frame))
	switch {
	case n > MaxFrameBytes-4:
		return Message{}, fmt.Errorf("agent: frame %d bytes exceeds limit %d", n+4, MaxFrameBytes)
	case n > int64(len(frame)-4):
		return Message{}, errTruncated
	case n < int64(len(frame)-4):
		return Message{}, fmt.Errorf("agent: %d bytes after the frame", int64(len(frame)-4)-n)
	}
	r := frameReader{b: frame[4:], names: names}
	if v := r.u8(); r.err == nil && v != frameVersion {
		return Message{}, fmt.Errorf("agent: unknown frame version %d", v)
	}
	msg := Message{Body: BodyKind(r.u8()), Span: r.u64()}
	msg.Type, msg.From, msg.To = r.str(), r.str(), r.str()
	switch msg.Body {
	case BodyRaw:
		if len(r.b) > 0 {
			msg.Payload = append([]byte(nil), r.b...)
		}
		r.b = nil
	case BodyProfile:
		msg.Profile = Profile{Server: r.str(), MedianWatts: r.f64(), Requested: r.f64(), Granted: r.f64(), CoreCost: r.f64()}
	case BodyBudget:
		msg.Budget = Budget{Watts: r.f64()}
	case BodyRackEvent:
		msg.RackEvent = RackEvent{Kind: int64(r.u64()), Power: r.f64(), Limit: r.f64()}
	default:
		if r.err == nil {
			return Message{}, fmt.Errorf("agent: unknown body kind %d", msg.Body)
		}
	}
	if r.err != nil {
		return Message{}, r.err
	}
	if len(r.b) > 0 {
		return Message{}, fmt.Errorf("agent: %d bytes after the %q body", len(r.b), msg.Type)
	}
	if err := checkFrame(msg); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// errFrameTooLarge ends a stream: after a length over MaxFrameBytes there is
// no telling where the next frame starts.
var errFrameTooLarge = errors.New("agent: frame length exceeds limit")

// readFrame reads the next whole frame from r into buf, growing it as
// needed, and returns it. A length over MaxFrameBytes is errFrameTooLarge,
// returned before any of the body is read; a stream that ends mid-frame is
// an io error.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxFrameBytes-4 {
		return buf, errFrameTooLarge
	}
	if cap(buf) < 4+int(n) {
		buf = append(buf, make([]byte, n)...)
	}
	buf = buf[:4+int(n)]
	_, err := io.ReadFull(r, buf[4:])
	return buf, err
}
