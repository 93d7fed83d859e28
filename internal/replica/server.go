package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/serve"
	"dcfail/internal/wire"
)

// ServerOptions tunes the primary-side stream server.
type ServerOptions struct {
	// Heartbeat is how often an idle stream re-sends the tip as a
	// KindHello, so replicas can tell a quiet primary from a black-holed
	// link by read deadline (default 1s).
	Heartbeat time.Duration
	// WriteTimeout bounds each frame write; a replica that stops reading
	// is severed instead of wedging the stream goroutine (default 10s).
	WriteTimeout time.Duration
	// Now stamps write deadlines (nil means time.Now), injectable for
	// deterministic tests.
	Now func() time.Time
	// DisableBinary refuses binary codec negotiation: syncs offering
	// wire.CodecBinV1 are still served, but as NL-JSON. Used to exercise
	// the fallback path and to mimic old primaries.
	DisableBinary bool
}

// Server publishes a serve.State's ticket log and epoch markers to any
// number of replica subscribers. One goroutine per subscriber streams
// rows from the resume position and wakes on every fold via State.Watch.
type Server struct {
	state *serve.State
	ln    net.Listener
	opts  ServerOptions
	now   func() time.Time

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewServer starts a replication stream server over st on addr (use
// "127.0.0.1:0" for an ephemeral port). Callers must Close it.
func NewServer(addr string, st *serve.State, opts ServerOptions) (*Server, error) {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	s := &Server{
		state:   st,
		opts:    opts,
		now:     opts.Now,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
	}
	if s.now == nil {
		//lint:ignore walltime injection-point default; ServerOptions.Now overrides the clock used for write deadlines
		s.now = time.Now
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address replicas dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every subscriber stream, and waits for
// the stream goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing)
		err := s.ln.Close()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.closeErr = err
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go s.stream(conn)
	}
}

// stream serves one subscriber: read the resume request, then push rows
// and epoch markers until the connection dies or the server closes.
func (s *Server) stream(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Frames are buffered and flushed once per wake-up (flush below): an
	// epoch's rows and its marker leave in one write, which matters now
	// that the primary publishes an epoch every few milliseconds.
	w := bufio.NewWriterSize(conn, 64<<10)
	write := func(b []byte) bool {
		conn.SetWriteDeadline(s.now().Add(s.opts.WriteTimeout))
		_, err := w.Write(b)
		return err == nil
	}
	flush := func() bool {
		conn.SetWriteDeadline(s.now().Add(s.opts.WriteTimeout))
		return w.Flush() == nil
	}
	send := func(m *Message) bool {
		line, err := encode(m)
		return err == nil && write(line)
	}

	// The one request: the replica's resume position.
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxFrameBytes)
	conn.SetReadDeadline(s.now().Add(s.opts.WriteTimeout))
	if !sc.Scan() {
		return
	}
	var req Message
	if err := json.Unmarshal(sc.Bytes(), &req); err != nil || req.Kind != KindSync || req.Row < 0 {
		send(&Message{Kind: KindError, Error: "replica: malformed sync request"})
		flush()
		return
	}
	tip := s.state.Current()
	if req.Row > tip.Tickets() || req.Epoch > tip.Epoch() {
		// The subscriber holds more history than this primary — a
		// misconfiguration (or a primary restarted with less data) that
		// resending rows cannot fix.
		send(&Message{Kind: KindError,
			Error: fmt.Sprintf("replica: subscriber at (epoch %d, row %d) is ahead of primary (epoch %d, row %d)",
				req.Epoch, req.Row, tip.Epoch(), tip.Tickets())})
		flush()
		return
	}

	// Codec negotiation: the pick rides on the first (JSON) hello; every
	// frame after that is binary when the offer was accepted.
	codec := ""
	if !s.opts.DisableBinary {
		for _, offer := range req.Codecs {
			if offer == wire.CodecBinV1 {
				codec = offer
				break
			}
		}
	}
	binary := codec == wire.CodecBinV1
	var enc *wire.Encoder
	var frame []byte
	if binary {
		enc = wire.NewEncoder()
	}
	sendError := func(msg string) {
		if binary {
			frame = wire.AppendError(frame[:0], "", msg)
			write(frame)
		} else {
			send(&Message{Kind: KindError, Error: msg})
		}
		flush()
	}
	sendRow := func(row int, t *fot.Ticket) bool {
		if binary {
			frame = enc.AppendRow(frame[:0], row, t)
			return write(frame)
		}
		m, err := rowMessage(row, *t)
		if err != nil {
			sendError(err.Error())
			return false
		}
		return send(m)
	}
	sendEpoch := func(epoch uint64, rows int, foldedAt time.Time) bool {
		if binary {
			frame = wire.AppendEpoch(frame[:0], epoch, rows, foldedAt)
			return write(frame)
		}
		return send(&Message{Kind: KindEpoch, Epoch: epoch, Rows: rows, FoldedAt: foldedAt})
	}
	sendHello := func(epoch uint64, rows int) bool {
		if binary {
			frame = wire.AppendHello(frame[:0], epoch, rows)
			return write(frame)
		}
		return send(&Message{Kind: KindHello, Epoch: epoch, Rows: rows})
	}

	watch := s.state.Watch()
	defer s.state.Unwatch(watch)

	if !send(&Message{Kind: KindHello, Epoch: tip.Epoch(), Rows: tip.Tickets(), Codec: codec}) {
		return
	}

	sentRows, sentEpoch := req.Row, req.Epoch
	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()
	for {
		snap := s.state.Current()
		if snap.Tickets() > sentRows {
			rows, err := s.state.Rows(sentRows, snap.Tickets())
			if err != nil {
				sendError(err.Error())
				return
			}
			for i := range rows {
				if !sendRow(sentRows+i, &rows[i]) {
					return
				}
			}
			sentRows = snap.Tickets()
		}
		if snap.Epoch() > sentEpoch {
			// One marker per observed fold; collapsed intermediate epochs
			// are fine — the replica jumps straight to this one.
			if !sendEpoch(snap.Epoch(), snap.Tickets(), snap.FoldedAt()) {
				return
			}
			sentEpoch = snap.Epoch()
		}
		if !flush() {
			return
		}
		select {
		case <-watch:
		case <-heartbeat.C:
			cur := s.state.Current()
			if !sendHello(cur.Epoch(), cur.Tickets()) {
				return
			}
		case <-s.closing:
			return
		}
	}
}
