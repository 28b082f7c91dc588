package ops

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// NewLogger builds a process logger writing to w. Format is "json" (the
// production default: one object per line, machine-parseable) or "text"
// (logfmt-style, for interactive runs); level is "debug", "info", "warn", or
// "error". Unknown values fall back to json/info rather than failing — a
// mistyped flag must not take the server down.
func NewLogger(w io.Writer, format, level string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: ParseLevel(level)}
	var h slog.Handler
	if strings.EqualFold(format, "text") {
		h = slog.NewTextHandler(w, opts)
	} else {
		h = slog.NewJSONHandler(w, opts)
	}
	return slog.New(h)
}

// ParseLevel maps a level name to its slog.Level, defaulting to Info.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// discardHandler drops every record. slog has no built-in discard handler at
// this language version, and a JSON handler on io.Discard still pays for
// formatting; this one declines at the Enabled check.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Discard returns a logger that drops everything: the nil-sink of the
// logging layer. Safe to share.
func Discard() *slog.Logger { return discardLogger }

var discardLogger = slog.New(discardHandler{})

// Or returns l, or the discard logger when l is nil, so callers can hold an
// optional logger without nil checks at every call site.
func Or(l *slog.Logger) *slog.Logger {
	if l == nil {
		return Discard()
	}
	return l
}

// IDSource mints process-unique request IDs: a fixed prefix derived from the
// process identity (so IDs from different processes don't collide in shared
// log storage) plus an atomic sequence number. Safe for concurrent use.
type IDSource struct {
	prefix string
	seq    atomic.Int64
}

// NewIDSource returns an ID source with a fresh process-derived prefix.
func NewIDSource() *IDSource {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", os.Getpid(), time.Now().UnixNano())
	return &IDSource{prefix: fmt.Sprintf("%08x", uint32(h.Sum64()))}
}

// Next returns the next request ID, e.g. "f2a81c9d-000042".
func (s *IDSource) Next() string {
	return fmt.Sprintf("%s-%06d", s.prefix, s.seq.Add(1))
}
