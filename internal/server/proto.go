// Package server is the mppd network front end: a TCP line-protocol
// server that turns the embeddable partopt engine into a multi-client
// service with a hardened connection lifecycle — per-session goroutines
// and prepared statements, read/write/idle deadlines, per-query timeouts,
// panic isolation, overload shedding against the admission queue, and
// graceful drain — plus /healthz, /readyz, /metrics and /statz HTTP
// endpoints backed by the engine's obs registry.
//
// # Wire protocol
//
// The protocol is a request/response text protocol over one TCP
// connection. On connect the server sends a greeting response; after that
// the client sends one statement per line and reads exactly one response
// per statement. A response is a header line, zero or more payload lines,
// and a terminator line containing a single period:
//
//	OK <detail...>          acknowledgement (DML row count, pong, ...)
//	ROWS <n>                result set: one tab-separated header line,
//	                        then n tab-separated data lines
//	TEXT                    verbatim text block (EXPLAIN, \metrics, ...)
//	ERR <CODE> <message>    failure; the session usually survives
//	.                       end of response
//
// Payload lines beginning with a period are dot-stuffed (".." sends "."),
// SMTP-style, so any payload round-trips. Statements are the mppsim
// grammar minus the engine-global toggles (\optimizer, \selection — a
// shared server gives no session the right to flip them): SQL SELECT /
// INSERT / UPDATE / DELETE, EXPLAIN [ANALYZE], PREPARE name AS stmt,
// EXECUTE name [args], DEALLOCATE name, PING, \tables, \metrics, \cache,
// \q.
//
// # Error codes
//
// ERR codes partition by who should act. TOO_BUSY and SHUTTING_DOWN are
// retryable: the request was refused before any work started, and a
// client may resend it (to this coordinator after backoff, or another
// one). TIMEOUT and CANCELED carry a PARTIAL payload line with the work
// the cluster did before the abort. INTERNAL marks a server-side panic
// that was isolated to the session.
package server

import (
	"bufio"
	"fmt"
	"strings"
)

// Error codes of the ERR response.
const (
	CodeParse    = "PARSE"         // statement did not parse / bind
	CodeExec     = "EXEC"          // execution failed (engine error)
	CodeTimeout  = "TIMEOUT"       // per-query deadline exceeded, or idle timeout
	CodeCanceled = "CANCELED"      // query canceled (drain deadline, client gone)
	CodeOOM      = "OOM"           // memory budget exhausted
	CodeTooBusy  = "TOO_BUSY"      // overload shed: admission queue or connection cap saturated (retryable)
	CodeDraining = "SHUTTING_DOWN" // server draining; no new work (retryable)
	CodeInternal = "INTERNAL"      // isolated server-side panic
	CodeProto    = "PROTO"         // protocol violation (line too long, bad EXECUTE args)
	CodeNetFault = "NETFAULT"      // injected connection-layer fault (tests)
)

// Retryable reports whether an ERR code marks a refusal that a client may
// safely retry: the server did not start any work on the statement.
func Retryable(code string) bool {
	return code == CodeTooBusy || code == CodeDraining
}

// maxLineLen bounds one protocol line (statements and payload), keeping a
// hostile or broken client from growing the session buffer unboundedly.
const maxLineLen = 1 << 20

// writeResponse emits one framed response: header, dot-stuffed payload
// lines, terminator. The caller flushes (and owns write deadlines).
func writeResponse(w *bufio.Writer, header string, payload []string) error {
	if _, err := w.WriteString(header); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	for _, line := range payload {
		// A payload string may itself span lines (EXPLAIN output);
		// dot-stuff each physical line.
		for _, phys := range strings.Split(strings.TrimSuffix(line, "\n"), "\n") {
			if strings.HasPrefix(phys, ".") {
				if err := w.WriteByte('.'); err != nil {
					return err
				}
			}
			if _, err := w.WriteString(phys); err != nil {
				return err
			}
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	if _, err := w.WriteString(".\n"); err != nil {
		return err
	}
	return nil
}

func errHeader(code, format string, args ...any) string {
	return fmt.Sprintf("ERR %s %s", code, fmt.Sprintf(format, args...))
}
