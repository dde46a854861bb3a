package fuse

// Observability hooks for the daemon loop. A Server with a registry
// attached (SetObs) counts requests per opcode and handler goroutine
// starts, tracks queue depth and in-flight handlers as gauges,
// accumulates wire throughput, and traces every request's
// queue→dispatch→reply lifecycle into the registry's flight recorder.
// All instruments are nil-safe, so an uninstrumented Server pays only a
// nil check per site.

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/spec"
)

const nOps = int(spec.OpReadv) + 1

// srvObs bundles the Server's instruments so the hot loop dereferences a
// single pointer.
type srvObs struct {
	rec      *obs.FlightRecorder
	requests [nOps]*obs.Counter
	reqLat   *obs.Histogram
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	queued   *obs.Gauge
	inflight *obs.Gauge
	conns    *obs.Gauge
	// Writer-coalescing instruments: flushes counts vectored writes,
	// flushedFrames the frames they carried (frames/flush is the batching
	// ratio the net bench suite reports).
	flushes       *obs.Counter
	flushedFrames *obs.Counter
	// handlersSpawned counts handler goroutine starts; against the
	// request counters it gives the handler reuse ratio.
	handlersSpawned *obs.Counter

	// Per-tenant instruments, created lazily on first sight of a label
	// (tenant cardinality is operator-controlled via SetQuota/SetTenant).
	reg       *obs.Registry
	tenantMu  sync.Mutex
	tenantMap map[string]*tenantObs

	// Per-reason rejection counters (wire-cap violations), created lazily;
	// reason cardinality is fixed by the handler's reject() call sites.
	rejectMu  sync.Mutex
	rejectMap map[string]*obs.Counter
}

// tenantObs bundles one tenant's admission instruments.
type tenantObs struct {
	requests   *obs.Counter // requests replied (any outcome)
	admitted   *obs.Counter // requests past admission
	rejected   *obs.Counter // requests refused or abandoned at admission
	queued     *obs.Gauge   // requests waiting for a token right now
	throttleNs *obs.Histogram
}

// tenant returns (creating if needed) the instruments for one label.
func (p *srvObs) tenant(name string) *tenantObs {
	p.tenantMu.Lock()
	defer p.tenantMu.Unlock()
	if t, ok := p.tenantMap[name]; ok {
		return t
	}
	label := `{tenant="` + name + `"}`
	t := &tenantObs{
		requests:   p.reg.Counter("fuse_tenant_requests_total" + label),
		admitted:   p.reg.Counter("fuse_tenant_admitted_total" + label),
		rejected:   p.reg.Counter("fuse_tenant_rejected_total" + label),
		queued:     p.reg.Gauge("fuse_tenant_queued" + label),
		throttleNs: p.reg.Histogram("fuse_tenant_throttle_ns" + label),
	}
	p.tenantMap[name] = t
	return t
}

func newSrvObs(reg *obs.Registry) *srvObs {
	p := &srvObs{
		reg:           reg,
		tenantMap:     map[string]*tenantObs{},
		rejectMap:     map[string]*obs.Counter{},
		rec:           reg.FlightRecorder(),
		reqLat:        reg.Histogram("fuse_request_ns"),
		bytesIn:       reg.Counter("fuse_bytes_read_total"),
		bytesOut:      reg.Counter("fuse_bytes_written_total"),
		queued:        reg.Gauge("fuse_queued"),
		inflight:      reg.Gauge("fuse_inflight"),
		conns:         reg.Gauge("fuse_conns"),
		flushes:       reg.Counter("fuse_writer_flushes_total"),
		flushedFrames: reg.Counter("fuse_writer_frames_total"),
	}
	p.handlersSpawned = reg.Counter("atomfs_fuse_handlers_spawned_total")
	for k := spec.Op(0); int(k) < nOps; k++ {
		p.requests[k] = reg.Counter(`fuse_requests_total{op="` + k.String() + `"}`)
	}
	return p
}

// SetObs attaches a metrics registry to the server. Call before Serve or
// ServeConn; the server never mutates the pack afterwards, so attaching
// early makes the pointer safely visible to connection goroutines.
func (s *Server) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obs = newSrvObs(reg)
}

// queueReq records a request coming off the wire.
func (p *srvObs) queueReq(req *request, frameLen int) (queuedNs int64) {
	now := time.Now().UnixNano()
	p.bytesIn.Add(req.ID, uint64(frameLen))
	p.queued.Inc(req.ID)
	p.rec.EmitAt(now, req.ID, obs.EvFuseQueue, uint8(req.Op), 0, req.ID)
	return now
}

// dispatchReq records a handler goroutine picking the request up.
func (p *srvObs) dispatchReq(req *request) {
	p.queued.Dec(req.ID)
	p.inflight.Inc(req.ID)
	p.rec.Emit(req.ID, obs.EvFuseDispatch, uint8(req.Op), 0, req.ID)
}

// replyReq records the reply hitting the wire and closes out the
// request's latency sample (queue-to-reply, the client-visible figure).
func (p *srvObs) replyReq(req *request, queuedNs int64, bodyLen int) {
	now := time.Now().UnixNano()
	p.inflight.Dec(req.ID)
	if int(req.Op) < nOps {
		p.requests[req.Op].Inc(req.ID)
	}
	if req.Tenant != "" {
		p.tenant(req.Tenant).requests.Inc(req.ID)
	}
	p.reqLat.Observe(req.ID, now-queuedNs)
	p.bytesOut.Add(req.ID, uint64(bodyLen))
	p.rec.EmitAt(now, req.ID, obs.EvFuseReply, uint8(req.Op), 0, req.ID)
}

// dropReq closes out a request whose reply never reached the wire (the
// connection writer refused it: dying connection or expired deadline
// under backpressure).
func (p *srvObs) dropReq(req *request) {
	p.inflight.Dec(req.ID)
}

// reject counts a wire-cap violation in
// atomfs_fuse_rejected_total{reason="..."}.
func (p *srvObs) reject(reason string, id uint64) {
	p.rejectMu.Lock()
	c, ok := p.rejectMap[reason]
	if !ok {
		c = p.reg.Counter(`atomfs_fuse_rejected_total{reason="` + reason + `"}`)
		p.rejectMap[reason] = c
	}
	p.rejectMu.Unlock()
	c.Inc(id)
}

// flush observes one completed vectored write (frameWriter hook).
func (p *srvObs) flush(frames, bytes int) {
	p.flushes.Inc(0)
	p.flushedFrames.Add(0, uint64(frames))
}
