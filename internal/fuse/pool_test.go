package fuse

import "testing"

// TestBufPoolRoundTripAllocFree: once a class's pool holds a buffer, a
// getBuf/putBuf round trip in that class allocates nothing.
func TestBufPoolRoundTripAllocFree(t *testing.T) {
	for _, size := range bufClasses {
		putBuf(getBuf(size))
		if a := testing.AllocsPerRun(100, func() { putBuf(getBuf(size)) }); a != 0 {
			t.Errorf("class %d: %v allocs per round trip, want 0", size, a)
		}
	}
}

// sinkConn accepts every write.
type sinkConn struct{}

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

// TestFrameWriterFlushAllocFree: in steady state, sending a pooled frame
// and waiting for the writer to flush it allocates nothing.
func TestFrameWriterFlushAllocFree(t *testing.T) {
	flushed := make(chan struct{})
	w := newFrameWriter(sinkConn{}, true, func(frames, bytes int) { flushed <- struct{}{} })
	defer w.stop()
	payload := make([]byte, 512)
	flush := func() {
		if err := w.send(tctx, outFrame{hdr: getBuf(32), payload: payload}); err != nil {
			t.Fatal(err)
		}
		<-flushed
	}
	flush()
	if a := testing.AllocsPerRun(100, flush); a != 0 {
		t.Fatalf("%v allocs per flushed frame, want 0", a)
	}
}
