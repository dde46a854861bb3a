package fuse

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/spec"
)

// Server dispatches protocol requests to a file system. Each request runs
// on its own handler goroutine (bounded by a semaphore), matching FUSE's
// multi-threaded daemon loop, so independent operations proceed in
// parallel even over one connection. Like FUSE's worker threads, handlers
// are pooled per connection: a finished handler parks for the next
// request, a new one starts only when none is idle, at most maxInflight
// stay parked, and all have exited when ServeConn returns.
//
// Replies do not contend on a write mutex: every connection owns a
// bounded reply queue drained by a single writer goroutine that coalesces
// queued replies into one vectored net.Buffers write (DESIGN.md §15).
// Read payloads come from size-classed pools and ride the vectored write
// without ever being copied into a frame buffer; the writer returns them
// to the pool after the flush. A full reply queue blocks the handler with
// its request context — backpressure from a slow-reading client feeds the
// same deadline admission as a slow file system.
//
// Context plumbing: every connection gets a context cancelled when the
// connection (or the server) closes, and every request carrying a wire
// deadline gets a per-request sub-context. The request context reaches the
// file system, so a dropped connection aborts its in-flight traversals at
// their next cancellation poll instead of leaving them to run to
// completion against a client that is gone. Requests whose deadline has
// already passed when they clear the admission semaphore are rejected with
// ETIMEDOUT before touching the file system at all — a doomed request
// must not be allowed to acquire inode locks just to discover it is late.
type Server struct {
	fs fsapi.FS
	// MaxInflight bounds concurrent requests per connection.
	maxInflight int
	// coalesce false degrades the per-connection writer to one write per
	// frame — the measured baseline for the batching win (SetCoalesce).
	coalesce bool
	// obs, when non-nil, instruments the dispatch loop (see SetObs).
	obs *srvObs

	// quotas holds per-tenant admission buckets (see SetQuota).
	quotaMu sync.RWMutex
	quotas  map[string]*tenantBucket

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[net.Conn]func() // conn -> its context cancel
	wg     sync.WaitGroup
}

// NewServer creates a server over fs.
func NewServer(fs fsapi.FS) *Server {
	return &Server{fs: fs, maxInflight: 64, coalesce: true, conns: map[net.Conn]func(){}}
}

// SetCoalesce toggles reply coalescing (on by default). Off, the writer
// goroutine still serializes replies but issues one vectored write per
// frame — the per-frame baseline cmd/benchjson's net suite measures the
// coalescing speedup against. Call before serving.
func (s *Server) SetCoalesce(on bool) { s.coalesce = on }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = nil
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close stops the server and its connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	for c, cancel := range s.conns {
		c.Close()
		if cancel != nil {
			cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ServeConn processes one connection synchronously (exported so tests and
// in-process transports can drive a net.Pipe end directly).
func (s *Server) ServeConn(conn net.Conn) {
	// The connection is the root of this request tree; there is no caller
	// context to inherit from. ctxlint:allow
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer conn.Close()
	s.mu.Lock()
	s.conns[conn] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	p := s.obs
	if p != nil {
		p.conns.Inc(0)
		defer p.conns.Dec(0)
	}
	var flushed func(frames, bytes int)
	if p != nil {
		flushed = p.flush
	}
	w := newFrameWriter(conn, s.coalesce, flushed)
	defer w.stop()
	// Buffered reads are the receive half of coalescing: a batch the peer
	// wrote with one writev drains here in one read syscall instead of
	// two per frame.
	br := bufio.NewReaderSize(conn, 64<<10)
	// Handlers are reused: a finished handler parks on jobs for the next
	// request instead of exiting, so a monitored, journaled request runs on
	// a stack an earlier request already grew rather than regrowing a
	// fresh goroutine's by copying. idle counts handlers parked or about
	// to park; one that would push it past maxInflight exits instead.
	var inflight sync.WaitGroup
	var idle atomic.Int32
	jobs := make(chan job)
	sem := make(chan struct{}, s.maxInflight)
	handler := func(j job) {
		defer inflight.Done()
		for {
			s.serveReq(w, sem, j)
			if idle.Add(1) > int32(s.maxInflight) {
				idle.Add(-1)
				return
			}
			var ok bool
			j, ok = <-jobs
			idle.Add(-1)
			if !ok {
				return
			}
		}
	}
	for {
		frame, err := readFrame(br)
		if err != nil {
			break // EOF or broken connection
		}
		req, err := decodeRequest(frame)
		if err != nil {
			putBuf(frame)
			break // protocol violation; drop the connection
		}
		req.frame = frame
		// Anchor the wire deadline before the request can queue on the
		// semaphore: time spent waiting for an inflight slot counts
		// against the caller's budget, exactly like time spent in FUSE's
		// pending queue.
		j := job{req: req, ctx: ctx, cancel: func() {}}
		if req.TimeoutNs > 0 {
			j.ctx, j.cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNs))
		}
		if p != nil {
			j.queuedNs = p.queueReq(req, len(frame))
		}
		select {
		case jobs <- j: // a parked handler took it
		default:
			inflight.Add(1)
			if p != nil {
				p.handlersSpawned.Inc(0)
			}
			go handler(j)
		}
	}
	cancel() // connection gone: abort every in-flight request
	close(jobs)
	inflight.Wait()
}

// job is one decoded request on its way from a connection's read loop to
// a handler: the request, its context (with the wire deadline, if any)
// and that context's cancel, and the obs queue timestamp.
type job struct {
	req      *request
	ctx      context.Context
	cancel   context.CancelFunc
	queuedNs int64
}

// serveReq runs one request on the calling handler goroutine: tenant
// admission, the inflight semaphore, the expired-deadline rejection, then
// the file system and the reply.
func (s *Server) serveReq(w *frameWriter, sem chan struct{}, j job) {
	defer j.cancel()
	p, req, reqCtx := s.obs, j.req, j.ctx
	// Per-tenant admission runs BEFORE the inflight semaphore: a
	// throttled tenant waits (or is rejected) without holding a
	// dispatch slot the other tenants could use.
	if err := s.admit(reqCtx, req); err != nil {
		if p != nil {
			p.dispatchReq(req)
		}
		s.reply(reqCtx, w, req, &reply{ID: req.ID, Errno: fserr.Errno(err)}, j.queuedNs)
		putBuf(req.frame)
		return
	}
	sem <- struct{}{}
	defer func() { <-sem }()
	if p != nil {
		p.dispatchReq(req)
	}
	var rep *reply
	if err := reqCtx.Err(); err != nil {
		// Admission check: the deadline expired (or the connection
		// died) while the request sat in the queue. Reject it here,
		// before it can hold any inode lock.
		rep = &reply{ID: req.ID, Errno: fserr.Errno(err)}
	} else {
		rep = s.handle(reqCtx, req)
	}
	// The handler is done with the request's payload; the reply
	// owns only pooled buffers of its own.
	putBuf(req.frame)
	req.frame = nil
	s.reply(reqCtx, w, req, rep, j.queuedNs)
}

// reply encodes rep and enqueues it on the connection writer, recording
// the request's lifecycle with the obs pack. Failures release the reply's
// pooled buffers and are otherwise ignored: the connection is dying (the
// read loop handles teardown) or the request's deadline expired while the
// queue was full (backpressure — the client has already given up).
func (s *Server) reply(ctx context.Context, w *frameWriter, req *request, rep *reply, queuedNs int64) {
	p := s.obs
	f, err := replyFrame(rep)
	if err != nil {
		if rep.release != nil {
			rep.release()
		}
		if p != nil {
			p.inflight.Dec(req.ID)
		}
		return
	}
	n := len(f.hdr) - 4 + len(f.payload)
	if err := w.send(ctx, f); err != nil {
		if p != nil {
			p.dropReq(req)
		}
		return
	}
	if p != nil {
		p.replyReq(req, queuedNs, n)
	}
}

// handle dispatches one request to the file system, enforcing the wire
// I/O caps first: req.Size and req.Data are bounded by MaxIOSize (a
// single OpRead may no longer demand a MaxPayload-sized allocation), and
// readv extent lists by MaxExtents/MaxIOSize total. Rejections return
// EINVAL and count in atomfs_fuse_rejected_total{reason}.
func (s *Server) handle(ctx context.Context, req *request) *reply {
	rep := &reply{ID: req.ID}
	fail := func(err error) *reply {
		rep.Errno = fserr.Errno(err)
		return rep
	}
	reject := func(reason string) *reply {
		if p := s.obs; p != nil {
			p.reject(reason, req.ID)
		}
		return fail(fserr.ErrInvalid)
	}
	if len(req.Data) > MaxIOSize {
		return reject("data")
	}
	switch req.Op {
	case spec.OpMknod:
		if err := s.fs.Mknod(ctx, req.Path); err != nil {
			return fail(err)
		}
	case spec.OpMkdir:
		if err := s.fs.Mkdir(ctx, req.Path); err != nil {
			return fail(err)
		}
	case spec.OpRmdir:
		if err := s.fs.Rmdir(ctx, req.Path); err != nil {
			return fail(err)
		}
	case spec.OpUnlink:
		if err := s.fs.Unlink(ctx, req.Path); err != nil {
			return fail(err)
		}
	case spec.OpRename:
		if err := s.fs.Rename(ctx, req.Path, req.Path2); err != nil {
			return fail(err)
		}
	case spec.OpStat:
		info, err := s.fs.Stat(ctx, req.Path)
		if err != nil {
			return fail(err)
		}
		rep.Kind = uint8(info.Kind)
		rep.Size = info.Size
	case spec.OpRead:
		if req.Size < 0 || req.Size > MaxIOSize {
			return reject("size")
		}
		dst := getBuf(int(req.Size))
		n, err := s.fs.Read(ctx, req.Path, req.Off, dst)
		if err != nil {
			putBuf(dst)
			return fail(err)
		}
		rep.Data = dst[:n]
		rep.N = int32(n)
		rep.release = func() { putBuf(dst) }
	case spec.OpReadv:
		return s.handleReadv(ctx, req, rep, reject)
	case spec.OpWrite:
		n, err := s.fs.Write(ctx, req.Path, req.Off, req.Data)
		if err != nil {
			return fail(err)
		}
		rep.N = int32(n)
	case spec.OpTruncate:
		if err := s.fs.Truncate(ctx, req.Path, req.Off); err != nil {
			return fail(err)
		}
	case spec.OpReaddir:
		names, err := s.fs.Readdir(ctx, req.Path)
		if err != nil {
			return fail(err)
		}
		if len(names) > MaxDirNames {
			// An unbounded directory no longer fits one frame; the batch
			// clients never hit this (they paginate), and a legacy-style
			// whole-directory request on a huge directory is the exact
			// unbounded-frame case v2 retires.
			return reject("names")
		}
		rep.Names = names
	case spec.OpReaddirChunk:
		// Cursor-based pagination: Off is the index into the sorted name
		// list, Size the page bound (clamped to MaxDirNames). The reply
		// carries the page in Names and the next cursor in Size, -1 when
		// the listing is complete. Like POSIX readdir, pagination under
		// concurrent mutation is best-effort: the cursor indexes whatever
		// sorted snapshot each page's Readdir produced.
		if req.Off < 0 {
			return reject("cursor")
		}
		limit := int(req.Size)
		if limit <= 0 || limit > MaxDirNames {
			limit = MaxDirNames
		}
		names, err := s.fs.Readdir(ctx, req.Path)
		if err != nil {
			return fail(err)
		}
		start := int(req.Off)
		if start > len(names) {
			start = len(names)
		}
		end := start + limit
		if end > len(names) {
			end = len(names)
		}
		rep.Names = names[start:end]
		if end >= len(names) {
			rep.Size = -1
		} else {
			rep.Size = int64(end)
		}
	default:
		return fail(fserr.ErrInvalid)
	}
	return rep
}

// handleReadv serves a multi-extent read: one pooled buffer holds every
// extent's bytes back to back (short reads compact), the per-extent
// counts travel in the reply's size table, and the whole payload rides
// the vectored write zero-copy.
func (s *Server) handleReadv(ctx context.Context, req *request, rep *reply, reject func(string) *reply) *reply {
	if len(req.Extents) == 0 || len(req.Extents) > MaxExtents {
		return reject("extents")
	}
	total := 0
	for _, x := range req.Extents {
		if x.Size < 0 || int(x.Size) > MaxIOSize {
			return reject("extents")
		}
		total += int(x.Size)
		if total > MaxIOSize {
			return reject("extents")
		}
	}
	buf := getBuf(total)
	sizes := make([]int32, len(req.Extents))
	filled := 0
	for i, x := range req.Extents {
		n, err := s.fs.Read(ctx, req.Path, x.Off, buf[filled:filled+int(x.Size)])
		if err != nil {
			putBuf(buf)
			rep.Errno = fserr.Errno(err)
			return rep
		}
		// Compact: the next extent starts right after this one's bytes.
		copy(buf[filled:], buf[filled:filled+n])
		sizes[i] = int32(n)
		filled += n
	}
	rep.Data = buf[:filled]
	rep.N = int32(filled)
	rep.Sizes = sizes
	rep.release = func() { putBuf(buf) }
	return rep
}

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("fuse: client closed")

// Client implements fsapi.FS over a protocol connection. Requests from
// concurrent goroutines are enqueued on a single coalescing writer (the
// mirror of the server's reply path), so a calling storm costs one
// vectored write per batch instead of one write syscall per call. Reads
// and writes larger than MaxIOSize are chunked transparently; Readdir
// paginates with OpReaddirChunk so no listing produces an unbounded
// frame.
type Client struct {
	conn net.Conn
	w    *frameWriter
	// tenant labels every request for the server's admission control.
	tenant string

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *reply
	err     error
	done    chan struct{}
}

var _ fsapi.FS = (*Client)(nil)

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: map[uint64]chan *reply{}, done: make(chan struct{})}
	c.w = newFrameWriter(conn, true, nil)
	go c.readLoop()
	return c
}

// Dial connects to a TCP server address.
func Dial(addr string) (*Client, error) { return DialNetwork("tcp", addr) }

// DialNetwork connects over an arbitrary network ("tcp", "unix", ...).
func DialNetwork(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Name identifies the implementation in benchmark tables.
func (c *Client) Name() string { return "fuse-client" }

// SetTenant labels all subsequent requests with the given tenant for the
// server's admission control and per-tenant accounting. Call before
// issuing operations; the label is read without synchronization.
func (c *Client) SetTenant(tenant string) { c.tenant = tenant }

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	// The writer can be stopped as soon as the connection is gone: queued
	// frames can never be delivered. stop() drains and releases them.
	c.w.stop()
	return err
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var loopErr error
	for {
		frame, err := readFrame(br)
		if err != nil {
			loopErr = err
			break
		}
		rep, err := decodeReply(frame)
		if err != nil {
			putBuf(frame)
			loopErr = err
			break
		}
		rep.frame = frame
		c.mu.Lock()
		ch := c.pending[rep.ID]
		delete(c.pending, rep.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- rep
		} else {
			// Abandoned call (cancelled); nothing will read this reply.
			putBuf(frame)
		}
	}
	if loopErr == nil || errors.Is(loopErr, io.EOF) {
		loopErr = ErrClientClosed
	}
	c.mu.Lock()
	c.err = loopErr
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	close(c.done)
}

// call sends req and waits for its reply or for ctx. A context deadline is
// forwarded on the wire as the remaining budget, so the server can reject
// or abort the request on its side too; cancellation while waiting
// abandons the reply locally (the reply is discarded when it arrives —
// the wire protocol has no interrupt message, mirroring the fact that a
// FUSE INTERRUPT is advisory anyway).
//
// data is the request payload; it is copied into a pooled buffer at
// enqueue time so the caller's slice is never aliased past the call (a
// cancelled caller may reuse it while the frame is still queued).
//
// The returned reply's Data aliases a pooled frame; the caller MUST
// finish with it and then call rep.done() (methods that return raw
// results to the user copy first).
func (c *Client) call(ctx context.Context, req *request, data []byte) (*reply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req.Tenant = c.tenant
	if dl, ok := ctx.Deadline(); ok {
		budget := time.Until(dl)
		if budget <= 0 {
			return nil, context.DeadlineExceeded
		}
		req.TimeoutNs = int64(budget)
	}
	ch := make(chan *reply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	var payload []byte
	var release func()
	if len(data) > 0 {
		buf := getBuf(len(data))
		copy(buf, data)
		payload = buf
		release = func() { putBuf(buf) }
	}
	if err := c.w.send(ctx, requestFrame(req, payload, release)); err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		if errors.Is(err, errWriterClosed) {
			err = ErrClientClosed
		}
		return nil, err
	}
	select {
	case rep, ok := <-ch:
		if !ok {
			return nil, ErrClientClosed
		}
		if rep.Errno != 0 {
			err := fserr.FromErrno(rep.Errno)
			rep.done()
			return nil, err
		}
		return rep, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// done releases the pooled frame backing the reply's Data. Safe on nil.
func (r *reply) done() {
	if r == nil {
		return
	}
	if r.frame != nil {
		putBuf(r.frame)
		r.frame = nil
		r.Data = nil
	}
}

// Mknod creates an empty file.
func (c *Client) Mknod(ctx context.Context, path string) error {
	rep, err := c.call(ctx, &request{Op: spec.OpMknod, Path: path}, nil)
	rep.done()
	return err
}

// Mkdir creates an empty directory.
func (c *Client) Mkdir(ctx context.Context, path string) error {
	rep, err := c.call(ctx, &request{Op: spec.OpMkdir, Path: path}, nil)
	rep.done()
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(ctx context.Context, path string) error {
	rep, err := c.call(ctx, &request{Op: spec.OpRmdir, Path: path}, nil)
	rep.done()
	return err
}

// Unlink removes a file.
func (c *Client) Unlink(ctx context.Context, path string) error {
	rep, err := c.call(ctx, &request{Op: spec.OpUnlink, Path: path}, nil)
	rep.done()
	return err
}

// Rename moves src to dst.
func (c *Client) Rename(ctx context.Context, src, dst string) error {
	rep, err := c.call(ctx, &request{Op: spec.OpRename, Path: src, Path2: dst}, nil)
	rep.done()
	return err
}

// Stat reports an inode's kind and size.
func (c *Client) Stat(ctx context.Context, path string) (fsapi.Info, error) {
	rep, err := c.call(ctx, &request{Op: spec.OpStat, Path: path}, nil)
	if err != nil {
		return fsapi.Info{}, err
	}
	info := fsapi.Info{Kind: spec.Kind(rep.Kind), Size: rep.Size}
	rep.done()
	return info, nil
}

// Read fills dst with bytes at off, reporting how many were read. Reads
// beyond MaxIOSize are split into sequential wire requests; a short chunk
// ends the read (EOF semantics compose across chunks).
func (c *Client) Read(ctx context.Context, path string, off int64, dst []byte) (int, error) {
	total := 0
	for {
		chunk := dst[total:]
		if len(chunk) > MaxIOSize {
			chunk = chunk[:MaxIOSize]
		}
		rep, err := c.call(ctx, &request{Op: spec.OpRead, Path: path, Off: off + int64(total), Size: int32(len(chunk))}, nil)
		if err != nil {
			return total, err
		}
		n := copy(chunk, rep.Data)
		rep.done()
		total += n
		if n < len(chunk) || total == len(dst) {
			return total, nil
		}
	}
}

// Readv reads several extents of one file in a single wire round trip,
// amortizing per-request framing. dsts[i] is filled from offs[i]; the
// returned counts mirror fsapi.FS.Read's short-read semantics per
// extent. Every extent must fit MaxIOSize and the extent count
// MaxExtents, matching the server's caps.
func (c *Client) Readv(ctx context.Context, path string, offs []int64, dsts [][]byte) ([]int, error) {
	if len(offs) != len(dsts) {
		return nil, fserr.ErrInvalid
	}
	if len(offs) == 0 {
		return nil, nil
	}
	exts := make([]extent, len(offs))
	for i := range offs {
		exts[i] = extent{Off: offs[i], Size: int32(len(dsts[i]))}
	}
	rep, err := c.call(ctx, &request{Op: spec.OpReadv, Path: path, Extents: exts}, nil)
	if err != nil {
		return nil, err
	}
	defer rep.done()
	if len(rep.Sizes) != len(offs) {
		return nil, errors.New("fuse: readv reply size-table mismatch")
	}
	ns := make([]int, len(offs))
	data := rep.Data
	for i, sz := range rep.Sizes {
		if sz < 0 || int(sz) > len(data) {
			return nil, errors.New("fuse: readv reply overruns payload")
		}
		ns[i] = copy(dsts[i], data[:sz])
		data = data[sz:]
	}
	return ns, nil
}

// Write stores data at off. Writes beyond MaxIOSize are split into
// sequential wire requests (each chunk is atomic on the server; the
// composite is not, exactly like write(2) on a pipe-sized boundary).
func (c *Client) Write(ctx context.Context, path string, off int64, data []byte) (int, error) {
	total := 0
	for {
		chunk := data[total:]
		if len(chunk) > MaxIOSize {
			chunk = chunk[:MaxIOSize]
		}
		rep, err := c.call(ctx, &request{Op: spec.OpWrite, Path: path, Off: off + int64(total)}, chunk)
		if err != nil {
			return total, err
		}
		n := int(rep.N)
		rep.done()
		total += n
		if total == len(data) || n < len(chunk) {
			return total, nil
		}
	}
}

// Truncate resizes a file.
func (c *Client) Truncate(ctx context.Context, path string, size int64) error {
	rep, err := c.call(ctx, &request{Op: spec.OpTruncate, Path: path, Off: size}, nil)
	rep.done()
	return err
}

// Readdir lists entries in sorted order, paginating over the wire in
// MaxDirNames-bounded chunks so no directory produces an unbounded
// frame. Pagination under concurrent mutation is best-effort, like
// POSIX readdir; the merged listing is re-sorted and deduplicated.
func (c *Client) Readdir(ctx context.Context, path string) ([]string, error) {
	names := []string{}
	cursor := int64(0)
	pages := 0
	for {
		rep, err := c.call(ctx, &request{Op: spec.OpReaddirChunk, Path: path, Off: cursor, Size: MaxDirNames}, nil)
		if err != nil {
			return nil, err
		}
		names = append(names, rep.Names...)
		next := rep.Size
		rep.done()
		if next < 0 {
			break
		}
		if next <= cursor {
			return nil, errors.New("fuse: readdir cursor did not advance")
		}
		cursor = next
		pages++
	}
	if pages > 0 {
		// Multi-page listings can interleave with mutations; restore the
		// sorted-unique contract.
		sort.Strings(names)
		names = dedupSorted(names)
	}
	return names, nil
}

func dedupSorted(names []string) []string {
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// Pipe returns a connected in-process client/server pair over net.Pipe
// (the "mount" used by tests and the quickstart example).
func Pipe(fs fsapi.FS) (*Client, *Server) {
	srv := NewServer(fs)
	c1, c2 := net.Pipe()
	srv.mu.Lock()
	srv.conns[c2] = nil
	srv.wg.Add(1)
	srv.mu.Unlock()
	go func() {
		defer srv.wg.Done()
		srv.ServeConn(c2)
	}()
	return NewClient(c1), srv
}
