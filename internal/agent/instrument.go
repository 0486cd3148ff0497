package agent

import (
	"time"

	"smartoclock/internal/metrics"
)

// Transport instrumentation for the live telemetry plane. Unlike the
// deterministic experiments — whose registries are single-goroutine and
// whose instrumentation records simulation time — the TCP transport runs
// real goroutines and measures wall-clock latency, so the handles live under
// a metrics.Locked and every update takes the lock. The in-process bus is
// never instrumented; an uninstrumented node's nil set of instruments costs
// one pointer test per hook.
//
// The series (all carrying a transport=tcp label plus any caller labels):
//
//	transport_sends_total        messages accepted for delivery
//	transport_send_errors_total  failed sends (unknown recipient, dead link)
//	transport_recvs_total        frames delivered to a local handler
//	transport_send_bytes         binary wire frame sizes (local delivery: raw payload size)
//	transport_recv_bytes         received wire frame sizes (TCP only)
//	transport_send_seconds       local delivery or frame write time
//	transport_queue_depth        in-flight inbound handlers
type transportInstruments struct {
	lk          *metrics.Locked
	sends       *metrics.Counter
	sendErrs    *metrics.Counter
	recvs       *metrics.Counter
	sendBytes   *metrics.Histogram
	recvBytes   *metrics.Histogram
	sendSeconds *metrics.Histogram
	queueDepth  *metrics.Gauge
}

func newTransportInstruments(lk *metrics.Locked, labels []metrics.Label) *transportInstruments {
	ls := append([]metrics.Label{metrics.L("transport", "tcp")}, labels...)
	ti := &transportInstruments{lk: lk}
	lk.Do(func(r *metrics.Registry) {
		ti.sends = r.Counter("transport_sends_total", ls...)
		ti.sendErrs = r.Counter("transport_send_errors_total", ls...)
		ti.recvs = r.Counter("transport_recvs_total", ls...)
		ti.sendBytes = r.Histogram("transport_send_bytes", metrics.ByteBuckets, ls...)
		ti.recvBytes = r.Histogram("transport_recv_bytes", metrics.ByteBuckets, ls...)
		ti.sendSeconds = r.Histogram("transport_send_seconds", metrics.LatencyBuckets, ls...)
		ti.queueDepth = r.Gauge("transport_queue_depth", ls...)
	})
	return ti
}

// send records one send attempt. All methods are nil-safe so hook sites in
// uninstrumented transports stay a single comparison.
func (ti *transportInstruments) send(bytes int, dur time.Duration, err error) {
	if ti == nil {
		return
	}
	ti.lk.Lock()
	if err != nil {
		ti.sendErrs.Inc()
	} else {
		ti.sends.Inc()
		ti.sendBytes.Observe(float64(bytes))
		ti.sendSeconds.Observe(dur.Seconds())
	}
	ti.lk.Unlock()
}

// recv records one frame delivered to a local handler.
func (ti *transportInstruments) recv(bytes int) {
	if ti == nil {
		return
	}
	ti.lk.Lock()
	ti.recvs.Inc()
	ti.recvBytes.Observe(float64(bytes))
	ti.lk.Unlock()
}

// queue adjusts the queue-depth gauge.
func (ti *transportInstruments) queue(delta float64) {
	if ti == nil {
		return
	}
	ti.lk.Lock()
	ti.queueDepth.Add(delta)
	ti.lk.Unlock()
}

// Instrument attaches transport metrics to the node under lk. Call before
// traffic starts; the node measures wire frame sizes in both directions,
// write latency, and the number of in-flight inbound handlers.
func (n *TCPNode) Instrument(lk *metrics.Locked, labels ...metrics.Label) {
	ti := newTransportInstruments(lk, labels)
	n.mu.Lock()
	n.instr = ti
	n.mu.Unlock()
}
