package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"partopt"
	"partopt/internal/fault"
)

// session is one client connection's server-side state: a goroutine
// reading statements, per-session prepared statements backed by the shared
// plan cache, and the in-flight cancel hook drain and disconnects use.
type session struct {
	srv      *Server
	id       uint64
	conn     net.Conn
	tr       *timeoutReader
	sc       *bufio.Scanner
	bw       *bufio.Writer
	prepared map[string]*partopt.Stmt

	mu     sync.Mutex
	cancel context.CancelFunc // in-flight statement, nil when idle
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	tr := &timeoutReader{conn: conn, idle: s.cfg.IdleTimeout, read: s.cfg.ReadTimeout, drain: s.drainCh}
	sc := bufio.NewScanner(tr)
	sc.Buffer(make([]byte, 16<<10), maxLineLen)
	return &session{
		srv:      s,
		id:       id,
		conn:     conn,
		tr:       tr,
		sc:       sc,
		bw:       bufio.NewWriter(conn),
		prepared: map[string]*partopt.Stmt{},
	}
}

// timeoutReader applies the session's read-side deadlines: the idle
// timeout while waiting for a statement's first byte, the (shorter) read
// timeout while completing a started line — the slow-loris guard — and a
// short poll cap once draining starts, so idle sessions notice the drain
// without being nudged.
type timeoutReader struct {
	conn       net.Conn
	idle, read time.Duration
	drain      <-chan struct{}
	started    bool // current statement has begun arriving
}

func (r *timeoutReader) Read(p []byte) (int, error) {
	d := r.idle
	if r.started {
		d = r.read
	}
	select {
	case <-r.drain:
		if d > drainPollInterval {
			d = drainPollInterval
		}
	default:
	}
	r.conn.SetReadDeadline(time.Now().Add(d))
	n, err := r.conn.Read(p)
	if n > 0 {
		r.started = true
	}
	return n, err
}

// nudge wakes a session blocked in a read, so drain does not wait for the
// next poll tick. Safe from any goroutine.
func (s *session) nudge() {
	s.conn.SetReadDeadline(time.Now())
}

// cancelInflight aborts the session's running statement, if any. The
// client receives CANCELED with partial statistics; the session itself
// survives to write that response.
func (s *session) cancelInflight() bool {
	s.mu.Lock()
	c := s.cancel
	s.mu.Unlock()
	if c == nil {
		return false
	}
	c()
	return true
}

// serve runs the session loop. Any panic that escapes statement-level
// isolation is caught here: the session dies with a log line, the server
// does not.
func (s *session) serve() {
	defer func() {
		if r := recover(); r != nil {
			s.srv.met.panics.Inc()
			s.srv.cfg.Logf("mppd: session %d: panic isolated, closing session: %v", s.id, r)
		}
		s.conn.Close()
	}()
	if err := s.write(fmt.Sprintf("READY mppd protocol=1 segments=%d session=%d", s.srv.eng.Segments(), s.id), nil); err != nil {
		return
	}
	for {
		if s.srv.Draining() {
			s.write(errHeader(CodeDraining, "server draining; retry against another coordinator"), nil)
			return
		}
		if err := s.srv.cfg.Faults.Hit(context.Background(), fault.ConnRead, int(s.id)); err != nil {
			s.srv.met.netFaults.Inc()
			var fe *fault.Error
			if errors.As(err, &fe) && fe.Kind != fault.KindDrop {
				s.write(errHeader(CodeNetFault, "injected read fault, closing session"), nil)
			}
			return
		}
		line, err := s.readLine()
		if err != nil {
			var ne net.Error
			switch {
			case s.srv.Draining():
				s.write(errHeader(CodeDraining, "server draining; retry against another coordinator"), nil)
			case errors.As(err, &ne) && ne.Timeout():
				s.write(errHeader(CodeTimeout, "idle timeout (%v), closing session", s.srv.cfg.IdleTimeout), nil)
			case errors.Is(err, bufio.ErrTooLong):
				s.write(errHeader(CodeProto, "statement exceeds %d bytes, closing session", maxLineLen), nil)
			}
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if s.srv.Draining() {
			s.write(errHeader(CodeDraining, "server draining; retry against another coordinator"), nil)
			return
		}
		if !s.dispatch(line) {
			return
		}
	}
}

// readLine blocks for the next statement, resetting the deadline regime to
// idle-first.
func (s *session) readLine() (string, error) {
	s.tr.started = false
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return "", err
		}
		return "", errors.New("eof")
	}
	return s.sc.Text(), nil
}

// write emits one framed response under the write deadline and the
// net.conn.write fault point. A non-nil return means the connection is no
// longer usable and the session must end.
func (s *session) write(header string, payload []string) error {
	if err := s.srv.cfg.Faults.Hit(context.Background(), fault.ConnWrite, int(s.id)); err != nil {
		s.srv.met.netFaults.Inc()
		return err // the response is lost in flight; close the session
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
	if err := writeResponse(s.bw, header, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

// dispatch executes one statement and writes its response. It returns
// false when the session must close. A panic inside statement handling is
// isolated: the client gets a structured INTERNAL error and the session
// survives.
func (s *session) dispatch(line string) (keep bool) {
	s.srv.met.statements.Inc()
	defer func() {
		if r := recover(); r != nil {
			s.srv.met.panics.Inc()
			s.srv.cfg.Logf("mppd: session %d: statement panic isolated: %v", s.id, r)
			keep = s.write(errHeader(CodeInternal, "panic isolated: %v", r), nil) == nil
		}
	}()
	upper := strings.ToUpper(line)
	switch {
	case line == `\q` || upper == "QUIT" || upper == "EXIT":
		s.write("OK bye", nil)
		return false
	case upper == "PING":
		return s.write("OK pong", nil) == nil
	case line == `\tables`:
		var out []string
		for _, name := range s.srv.eng.TableNames() {
			n, _ := s.srv.eng.NumPartitions(name)
			out = append(out, fmt.Sprintf("%s\t%d", name, n))
		}
		return s.write("TEXT", out) == nil
	case line == `\metrics`:
		s.srv.proc.Sample()
		return s.write("TEXT", []string{s.srv.eng.Metrics()}) == nil
	case line == `\cache`:
		st := s.srv.eng.PlanCacheStats()
		body := fmt.Sprintf("plan cache: %d/%d entries, epoch %d\nhits %d, misses %d, evictions %d, invalidations %d\noptimizer invocations: %d",
			st.Entries, st.Capacity, st.Epoch, st.Hits, st.Misses, st.Evictions, st.Invalidations, st.Optimizations)
		return s.write("TEXT", []string{body}) == nil
	case strings.HasPrefix(upper, "DEALLOCATE "):
		name := strings.TrimSpace(line[len("DEALLOCATE "):])
		if _, ok := s.prepared[name]; !ok {
			return s.write(errHeader(CodeProto, "no prepared statement %q", name), nil) == nil
		}
		delete(s.prepared, name)
		return s.write(fmt.Sprintf("OK deallocated %s", name), nil) == nil
	case strings.HasPrefix(upper, "PREPARE "):
		return s.handlePrepare(line)
	case strings.HasPrefix(upper, "EXECUTE "):
		return s.handleExecute(line)
	case strings.HasPrefix(upper, "EXPLAIN ANALYZE "):
		return s.handleExplainAnalyze(line[len("EXPLAIN ANALYZE "):])
	case strings.HasPrefix(upper, "EXPLAIN "):
		out, err := s.srv.eng.Explain(line[len("EXPLAIN "):])
		if err != nil {
			return s.write(errHeader(CodeExec, "%v", err), nil) == nil
		}
		return s.write("TEXT", []string{out}) == nil
	case strings.HasPrefix(upper, "INSERT"), strings.HasPrefix(upper, "UPDATE"), strings.HasPrefix(upper, "DELETE"):
		return s.handleDML(line)
	default:
		return s.handleSelect(line)
	}
}

// queryCtx opens the execution window of one statement: overload shedding
// was already cleared, the per-query timeout starts, the cancel hook is
// registered for drain, and the in-flight counters move. The returned stop
// must run before the next statement is read.
func (s *session) queryCtx() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	if t := s.srv.cfg.QueryTimeout; t > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), t)
	}
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	s.srv.beginQuery()
	return ctx, func() {
		s.mu.Lock()
		s.cancel = nil
		s.mu.Unlock()
		cancel()
		s.srv.endQuery()
	}
}

// errCode maps an engine error to a protocol code.
func errCode(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, partopt.ErrOutOfMemory):
		return CodeOOM
	}
	return CodeExec
}

// partialLine renders the work the cluster did before an abort, mirroring
// mppsim's partial-statistics block.
func partialLine(rows *partopt.Rows) string {
	if rows == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PARTIAL rows_scanned=%d rows_moved=%d", rows.RowsScanned, rows.RowsMoved)
	tables := make([]string, 0, len(rows.PartsScanned))
	for t := range rows.PartsScanned {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Fprintf(&b, " %s=%dparts", t, rows.PartsScanned[t])
	}
	return b.String()
}

// writeQueryError reports a failed statement, with partial statistics when
// the abort left any.
func (s *session) writeQueryError(err error, rows *partopt.Rows) bool {
	var payload []string
	if p := partialLine(rows); p != "" {
		payload = append(payload, p)
	}
	return s.write(errHeader(errCode(err), "%v", err), payload) == nil
}

// writeRows renders a result set: ROWS header, tab-separated column and
// data lines, and a trailing STAT line with execution metrics.
func (s *session) writeRows(rows *partopt.Rows, elapsed time.Duration) bool {
	payload := make([]string, 0, len(rows.Data)+2)
	payload = append(payload, strings.Join(rows.Columns, "\t"))
	for _, r := range rows.Data {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		payload = append(payload, strings.Join(cells, "\t"))
	}
	stat := fmt.Sprintf("STAT elapsed_us=%d plan_bytes=%d rows_scanned=%d rows_moved=%d spilled_bytes=%d",
		elapsed.Microseconds(), rows.PlanSize, rows.RowsScanned, rows.RowsMoved, rows.SpilledBytes)
	payload = append(payload, stat)
	return s.write(fmt.Sprintf("ROWS %d", len(rows.Data)), payload) == nil
}

func (s *session) handleSelect(query string) bool {
	if s.srv.shed() {
		s.srv.met.queriesShed.Inc()
		return s.write(errHeader(CodeTooBusy, "admission queue saturated (%d waiting); retry later", s.srv.eng.AdmissionState().Waiting), nil) == nil
	}
	ctx, stop := s.queryCtx()
	start := time.Now()
	rows, err := s.srv.eng.QueryCtx(ctx, query)
	stop()
	if err != nil {
		return s.writeQueryError(err, rows)
	}
	return s.writeRows(rows, time.Since(start))
}

func (s *session) handleDML(stmt string) bool {
	if s.srv.shed() {
		s.srv.met.queriesShed.Inc()
		return s.write(errHeader(CodeTooBusy, "admission queue saturated (%d waiting); retry later", s.srv.eng.AdmissionState().Waiting), nil) == nil
	}
	ctx, stop := s.queryCtx()
	n, err := s.srv.eng.ExecCtx(ctx, stmt)
	stop()
	if err != nil {
		return s.writeQueryError(err, nil)
	}
	return s.write(fmt.Sprintf("OK %d", n), nil) == nil
}

func (s *session) handleExplainAnalyze(query string) bool {
	if s.srv.shed() {
		s.srv.met.queriesShed.Inc()
		return s.write(errHeader(CodeTooBusy, "admission queue saturated (%d waiting); retry later", s.srv.eng.AdmissionState().Waiting), nil) == nil
	}
	ctx, stop := s.queryCtx()
	out, err := s.srv.eng.ExplainAnalyzeCtx(ctx, query)
	stop()
	if err != nil {
		var payload []string
		if out != "" {
			payload = append(payload, out) // partial actuals before the abort
		}
		return s.write(errHeader(errCode(err), "%v", err), payload) == nil
	}
	return s.write("TEXT", []string{out}) == nil
}

func (s *session) handlePrepare(line string) bool {
	rest := line[len("PREPARE "):]
	asIdx := strings.Index(strings.ToUpper(rest), " AS ")
	if asIdx < 0 {
		return s.write(errHeader(CodeProto, "usage: PREPARE <name> AS <statement>"), nil) == nil
	}
	name := strings.TrimSpace(rest[:asIdx])
	if name == "" {
		return s.write(errHeader(CodeProto, "usage: PREPARE <name> AS <statement>"), nil) == nil
	}
	if _, exists := s.prepared[name]; !exists && len(s.prepared) >= s.srv.cfg.MaxPrepared {
		return s.write(errHeader(CodeProto, "prepared statement cap (%d) reached; DEALLOCATE one first", s.srv.cfg.MaxPrepared), nil) == nil
	}
	st, err := s.srv.eng.Prepare(strings.TrimSpace(rest[asIdx+len(" AS "):]))
	if err != nil {
		return s.write(errHeader(CodeParse, "%v", err), nil) == nil
	}
	s.prepared[name] = st
	return s.write(fmt.Sprintf("OK prepared %s", name), []string{"FINGERPRINT " + st.Fingerprint()}) == nil
}

func (s *session) handleExecute(line string) bool {
	fields := strings.SplitN(strings.TrimSpace(line[len("EXECUTE "):]), " ", 2)
	st, ok := s.prepared[fields[0]]
	if !ok {
		return s.write(errHeader(CodeProto, "no prepared statement %q (use PREPARE <name> AS ...)", fields[0]), nil) == nil
	}
	var args []partopt.Value
	if len(fields) == 2 {
		var err error
		if args, err = ParseArgs(fields[1]); err != nil {
			return s.write(errHeader(CodeProto, "%v", err), nil) == nil
		}
	}
	if s.srv.shed() {
		s.srv.met.queriesShed.Inc()
		return s.write(errHeader(CodeTooBusy, "admission queue saturated (%d waiting); retry later", s.srv.eng.AdmissionState().Waiting), nil) == nil
	}
	ctx, stop := s.queryCtx()
	start := time.Now()
	if !st.IsQuery() {
		n, err := st.ExecCtx(ctx, args...)
		stop()
		if err != nil {
			return s.writeQueryError(err, nil)
		}
		return s.write(fmt.Sprintf("OK %d", n), nil) == nil
	}
	rows, err := st.QueryCtx(ctx, args...)
	stop()
	if err != nil {
		return s.writeQueryError(err, rows)
	}
	return s.writeRows(rows, time.Since(start))
}

// ParseArgs parses EXECUTE arguments: integers, floats, 'strings',
// YYYY-MM-DD dates and NULL (any case), separated by commas and/or spaces.
// A quoted string runs to its closing quote, so it may hold separators,
// and a doubled quote inside it is one literal quote. The server and the
// mppsim shell share it, so EXECUTE reads the same in both.
func ParseArgs(s string) ([]partopt.Value, error) {
	isSep := func(c byte) bool { return c == ',' || c == ' ' || c == '\t' }
	var out []partopt.Value
	for i := 0; i < len(s); {
		if isSep(s[i]) {
			i++
			continue
		}
		j := i
		if s[i] == '\'' {
			var b strings.Builder
			for j = i + 1; ; j++ {
				if j == len(s) {
					return nil, fmt.Errorf("unterminated string %s", s[i:])
				}
				if s[j] == '\'' {
					if j+1 == len(s) || s[j+1] != '\'' {
						break
					}
					j++ // '' is one literal quote
				}
				b.WriteByte(s[j])
			}
			j++ // past the closing quote
			if j < len(s) && !isSep(s[j]) {
				return nil, fmt.Errorf("invalid argument %q", s[i:])
			}
			out = append(out, partopt.String(b.String()))
			i = j
			continue
		}
		for j < len(s) && !isSep(s[j]) {
			j++
		}
		v, err := parseArg(s[i:j])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		i = j
	}
	return out, nil
}

// parseArg parses one unquoted EXECUTE argument.
func parseArg(tok string) (partopt.Value, error) {
	switch {
	case strings.EqualFold(tok, "NULL"):
		return partopt.Null, nil
	case len(tok) == 10 && tok[4] == '-' && tok[7] == '-':
		v, err := partopt.ParseDate(tok)
		if err != nil {
			return partopt.Null, fmt.Errorf("invalid date %q: %v", tok, err)
		}
		return v, nil
	case strings.ContainsAny(tok, ".eE"):
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return partopt.Null, fmt.Errorf("invalid argument %q", tok)
		}
		return partopt.Float(f), nil
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return partopt.Null, fmt.Errorf("invalid argument %q", tok)
	}
	return partopt.Int(n), nil
}
