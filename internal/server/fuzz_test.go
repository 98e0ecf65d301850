package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// multiModel is the tiny reference model of the MULTI state machine that
// FuzzServeLines holds the server to. It predicts, for every non-empty
// request line, that exactly one reply comes back, and for the lines the
// state machine itself answers (MULTI, EXEC, DISCARD, and SET/DEL while a
// batch is open) which reply. Lines it cannot predict (reads, errors from a
// full store) are only counted.
type multiModel struct {
	open bool
	n    int
}

// modelReply is one predicted reply: want is the exact line ("" = any line),
// wantPrefix an alternative accepted prefix (EXEC may fail on a full store).
type modelReply struct {
	line       string
	want       string
	wantPrefix string
}

// step consumes one request line (already stripped of "\n" and trailing
// "\r"s, non-empty) and returns its predicted reply and whether the
// connection closes after it.
func (m *multiModel) step(line string) (modelReply, bool) {
	r := modelReply{line: line}
	verb, rest, _ := strings.Cut(line, " ")
	switch asciiUpper(verb) {
	case "MULTI":
		if m.open {
			r.want = "ERR MULTI already open"
		} else {
			r.want = "OK"
			m.open, m.n = true, 0
		}
	case "EXEC":
		if !m.open {
			r.want = "ERR EXEC without MULTI"
			break
		}
		r.want = fmt.Sprintf("OK %d", m.n)
		if m.n > 0 {
			r.wantPrefix = "ERR exec:"
		}
		m.open = false
	case "DISCARD":
		if m.open {
			r.want = "OK"
		} else {
			r.want = "ERR DISCARD without MULTI"
		}
		m.open = false
	case "SET":
		key, _, _ := strings.Cut(rest, " ")
		if m.open && key != "" && !strings.ContainsRune(key, 0) {
			m.queue(&r)
		}
	case "DEL":
		key := strings.TrimSpace(rest)
		if m.open && key != "" && !strings.ContainsAny(key, " \t\x00") {
			m.queue(&r)
		}
	case "QUIT":
		r.want = "BYE"
		return r, true
	}
	return r, false
}

// queue predicts one well-formed SET/DEL inside an open batch.
func (m *multiModel) queue(r *modelReply) {
	if m.n >= DefaultMaxBatchOps {
		r.want = "ERR batch too large"
		m.open = false
		return
	}
	m.n++
	r.want = fmt.Sprintf("QUEUED %d", m.n)
}

// asciiUpper folds ASCII letters only: verbs are ASCII keywords.
func asciiUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}

// predict splits stream into request lines the way the protocol does and
// runs the model over them. closes reports that the server hangs up before
// the stream ends (QUIT, or an oversized line).
func predict(stream []byte) (out []modelReply, closes bool) {
	var m multiModel
	for len(stream) > 0 {
		line, tail, _ := bytes.Cut(stream, []byte("\n"))
		stream = tail
		if len(line) > MaxLine-1 {
			return out, true // oversized: the parser stops, the connection closes
		}
		s := strings.TrimRight(string(line), "\r")
		if s == "" {
			continue
		}
		r, quit := m.step(s)
		out = append(out, r)
		if quit {
			return out, true
		}
	}
	return out, false
}

// longLine returns a SET request whose line (without "\n") is MaxLine-1+off
// bytes: off <= 0 fits, off > 0 is one the parser must refuse.
func longLine(off int) []byte {
	const head = "SET long "
	b := make([]byte, 0, MaxLine+8)
	b = append(b, head...)
	b = append(b, bytes.Repeat([]byte{'x'}, MaxLine-1+off-len(head))...)
	return append(b, '\n')
}

// FuzzServeLines feeds arbitrary byte streams through a real connection and
// checks the parser's contract: no panic, exactly one reply per non-empty
// line and in order, nothing after QUIT or an oversized line, and the MULTI
// state machine agreeing with multiModel. long != 0 prefixes the stream with
// a request line near MaxLine (long%4 - 2 bytes off the limit).
func FuzzServeLines(f *testing.F) {
	f.Add([]byte("PING\n"), 0)
	f.Add([]byte("SET a 1\r\nGET a\r\n\r\n\n\rDEL a\r\r\n"), 0)
	f.Add([]byte("SET k\x00 v\nSET k v\x00\nGET \x00\nDEL k\x00\n\x00\n"), 0)
	f.Add([]byte("MULTI\nMULTI\nSET a 1\nDEL\nDEL a b\nINCR a\nEXEC\nEXEC\nDISCARD\n"), 0)
	f.Add([]byte("multi\nset a 1\ndiscard\nMULTI\nset b  two  words \nExEc\nGET b"), 0)
	f.Add([]byte("SET a 1\nQUIT\nGET a\n"), 0)
	f.Add([]byte("PING\n"), 1)
	f.Add([]byte("PING\n"), 2)
	f.Add([]byte("PING\n"), 3)

	st, err := shard.Open(shard.Options{
		Shards: 2, RegionSize: 512 << 10, CoordSize: 64 << 10, Variant: core.RomLog,
	})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()

	f.Fuzz(func(t *testing.T, stream []byte, long int) {
		if long != 0 {
			stream = append(longLine(long%4-2), stream...)
		}
		want, closes := predict(stream)
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wrote := make(chan error, 1)
		go func() {
			_, err := c.Write(stream)
			if err == nil {
				err = c.(*net.TCPConn).CloseWrite()
			}
			wrote <- err
		}()
		r := bufio.NewReader(c)
		var got []string
		for {
			line, err := r.ReadString('\n')
			if err == io.EOF && line == "" {
				break
			}
			if err != nil {
				// A server that hangs up with request bytes still unread
				// resets the connection, which can cost the client replies
				// already sent; only then may the replies fall short.
				if closes && errors.Is(err, syscall.ECONNRESET) {
					break
				}
				t.Fatalf("reading reply %d: %v (partial %q)", len(got), err, line)
			}
			got = append(got, strings.TrimSuffix(line, "\n"))
		}
		<-wrote
		if len(got) > len(want) || (!closes && len(got) != len(want)) {
			t.Fatalf("%d replies for %d non-empty lines\nreplies: %q", len(got), len(want), got)
		}
		for i, w := range want[:len(got)] {
			switch {
			case w.want == "" || got[i] == w.want:
			case w.wantPrefix != "" && strings.HasPrefix(got[i], w.wantPrefix):
			default:
				t.Fatalf("reply %d to %q: got %q, want %q", i, w.line, got[i], w.want)
			}
		}
	})
}
