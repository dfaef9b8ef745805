package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// memListener is an in-memory net.Listener: each dial yields a pair of
// connections joined by two unbounded byte buffers. Unlike net.Pipe a
// write never waits for the peer to read, so a server that flushes
// replies while its client is still writing a pipelined batch behaves
// as it does over a socket.
type memListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error { l.once.Do(func() { close(l.done) }); return nil }

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	a, b := newMemBuf(), newMemBuf()
	client, srv := &memConn{r: a, w: b}, &memConn{r: b, w: a}
	select {
	case l.ch <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memBuf is one direction of a memConn.
type memBuf struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte
	off    int
	closed bool
}

func newMemBuf() *memBuf {
	b := &memBuf{}
	b.cond.L = &b.mu
	return b
}

func (b *memBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, net.ErrClosed
	}
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *memBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.off == len(b.buf) && !b.closed {
		b.cond.Wait()
	}
	if b.off == len(b.buf) {
		return 0, io.EOF
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	if b.off == len(b.buf) {
		b.buf, b.off = b.buf[:0], 0
	}
	return n, nil
}

func (b *memBuf) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// memConn is one end of an in-memory connection. Deadlines are not
// supported; nbtried's server sets none.
type memConn struct{ r, w *memBuf }

func (c *memConn) Read(p []byte) (int, error)       { return c.r.read(p) }
func (c *memConn) Write(p []byte) (int, error)      { return c.w.write(p) }
func (c *memConn) Close() error                     { c.r.close(); c.w.close(); return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
