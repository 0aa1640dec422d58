package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one recorded interval. Op spans cover one call into the program;
// over HTTP each has two children, "send" (writing the request) and "recv"
// (waiting for and parsing the response).
type span struct {
	id, parent, op uint64
	name           uint8
	start, end     int64 // ns since the run's time base
}

const (
	spanClient = iota
	spanRead
	spanBatch
	spanWrite
	spanSend
	spanRecv
)

var spanNames = [...]string{"client", "read", "batch", "write", "send", "recv"}

// sendMarker is implemented by targets that can split an op at the moment
// its request was handed to the kernel.
type sendMarker interface{ sentAt() time.Time }

// spanBuf is one client's preallocated span store. It never grows: the
// traced window ends before a round could overflow it, so every call made
// in that window has its span.
type spanBuf struct {
	base  time.Time
	root  uint64
	spans []span
	seq   uint64
}

func newSpanBuf(base time.Time, clientID, capacity int) *spanBuf {
	b := &spanBuf{base: base, root: uint64(clientID+1) << 40, spans: make([]span, 0, capacity)}
	b.spans = append(b.spans, span{id: b.root, name: spanClient})
	return b
}

// room reports whether ops more op spans (with children) still fit.
func (b *spanBuf) room(ops int) bool { return len(b.spans)+3*ops <= cap(b.spans) }

func (b *spanBuf) op(k opKind, start, end time.Time, t target) {
	b.seq++
	id := b.root | b.seq
	s0, s1 := start.Sub(b.base).Nanoseconds(), end.Sub(b.base).Nanoseconds()
	b.spans = append(b.spans, span{id: id, parent: b.root, op: id, name: uint8(spanRead + k), start: s0, end: s1})
	if m, ok := t.(sendMarker); ok {
		mid := m.sentAt().Sub(b.base).Nanoseconds()
		b.seq++
		b.spans = append(b.spans, span{id: b.root | b.seq, parent: id, op: id, name: spanSend, start: s0, end: mid})
		b.seq++
		b.spans = append(b.spans, span{id: b.root | b.seq, parent: id, op: id, name: spanRecv, start: mid, end: s1})
	}
	b.spans[0].end = s1
}

// opSpans counts the op spans recorded (children excluded).
func (b *spanBuf) opSpans() int {
	n := 0
	for _, s := range b.spans {
		if s.name >= spanRead && s.name <= spanWrite {
			n++
		}
	}
	return n
}

// writeSpans writes every client's spans as CSV to path.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "span_id,parent_id,op_id,name,start_ns,end_ns")
	for _, b := range bufs {
		if len(b.spans) > 1 {
			b.spans[0].start = b.spans[1].start
		}
		for _, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.op, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
