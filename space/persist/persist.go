// Package persist makes a tuple space durable: it wraps any space.Space
// with a write-ahead log so tuples survive process restarts. The paper's
// space-info tuple advertises "whether the local space provides a
// persistence mechanism or not" (§2.4); this package is that mechanism —
// wrap the store, pass it via Config.Space, and set Config.Persistent.
//
// Log format (version 1 of the hardened format):
//
//	log    := header record*
//	header := "TWAL" version:1 pad:3
//	record := len:uvarint body crc:4
//	body   := 'O' expiryUnixNano:varint tuple   (out)
//	        | 'R' tuple                          (removal of one equal tuple)
//	crc    := IEEE CRC-32 of body, little-endian
//
// The per-record checksum mirrors the v2 wire frames: a record that
// replays is a record that was written exactly as logged. Replay applies
// outs (skipping those already expired) and removals in order; because
// tuple spaces are multisets, removing "one tuple equal to X" reproduces
// the original state regardless of storage ids. A corrupt record is
// skipped and replay continues with the next one; an unparseable tail
// (the classic torn final write of a crash) is dropped. Both are counted
// in the RecoveryReport. Open compacts the log to a snapshot of the live
// tuples, atomically: write tmp → fsync tmp → rename → fsync directory.
//
// Durability contract: with the default SyncAlways policy, an operation
// that returns success has its record fsynced — a crash (SIGKILL, power
// loss) after the ack never loses an out nor resurrects a removal. A WAL
// write or sync failure wedges the space (fail-stop): the failing
// operation reports the error (takes report "no match" and reinstate
// their tuple), and every subsequent mutation fails with the sticky
// error. Crashing is the ARIES-safe response to a log that can no longer
// be trusted; see space/persist/crash_test.go for the kill-point sweep
// that checks the contract at every byte.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/tuple"
)

// Record opcodes.
const (
	opOut    = 'O'
	opRemove = 'R'
)

// Log header.
const (
	logVersion = 1
	headerLen  = 8
)

var logMagic = []byte("TWAL")

// maxRecord bounds one log record.
const maxRecord = 8 << 20

// Errors.
var (
	// ErrClosed reports use of a closed space.
	ErrClosed = errors.New("persist: closed")
	// ErrBadLog reports a log file that is not a Tiamat WAL (wrong magic
	// or unsupported version). Open fails loudly rather than silently
	// starting empty over a file it does not understand.
	ErrBadLog = errors.New("persist: not a tiamat log")
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

// Sync policies, by decreasing durability.
const (
	// SyncAlways fsyncs after every append: an acked operation survives
	// any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs dirty appends every Options.SyncEvery: a crash
	// can lose up to one interval of acked operations, never corrupt
	// earlier state.
	SyncInterval
	// SyncNever leaves syncing to the OS (and to Close/compaction): the
	// log is still torn-write safe, but acked operations may be lost on
	// power failure.
	SyncNever
)

// Options tune the WAL beyond Open's defaults.
type Options struct {
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period (default 100ms).
	SyncEvery time.Duration
	// CompactAt triggers an online compaction (segment rotation) once
	// the active log exceeds this many bytes and has at least doubled
	// since the previous compaction. 0 selects the default 4 MiB;
	// negative disables size-triggered compaction (Open still compacts).
	CompactAt int64
	// FS overrides the filesystem (fault injection; default the OS).
	FS FS
	// Metrics receives wal.* counters (default: private registry).
	Metrics *trace.Metrics
	// StallThreshold is the fsync duration past which the space reports
	// itself Degraded — the slow-disk (gray failure) watchdog. 0 selects
	// the default 250ms; negative disables stall detection.
	StallThreshold time.Duration
	// StallDecay is how long a stall keeps the space Degraded after the
	// slow fsync returned (default 2s): one limping sync is a hint, a
	// stream of them keeps the flag refreshed continuously.
	StallDecay time.Duration
}

func (o *Options) applyDefaults() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.CompactAt == 0 {
		o.CompactAt = 4 << 20
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Metrics == nil {
		o.Metrics = &trace.Metrics{}
	}
	if o.StallThreshold == 0 {
		o.StallThreshold = 250 * time.Millisecond
	}
	if o.StallDecay <= 0 {
		o.StallDecay = 2 * time.Second
	}
}

// RecoveryReport summarises what replay found in the log.
type RecoveryReport struct {
	// Replayed counts records applied.
	Replayed int
	// Skipped counts records dropped for a checksum or decode failure
	// with replay continuing after them.
	Skipped int
	// TornTail counts trailing bytes dropped because no record boundary
	// could be recovered (a crash mid-append, or a corrupted length
	// prefix, after which resynchronisation is impossible).
	TornTail int
}

// Space wraps an inner space with durability.
type Space struct {
	inner space.Space
	clk   clock.Clock
	fs    FS
	opts  Options
	met   *trace.Metrics
	path  string
	dir   string
	rep   RecoveryReport

	// opMu serialises online compaction (write-held) against in-flight
	// log+apply pairs (read-held): a compaction snapshot taken between a
	// logged out and its application to inner would lose the tuple.
	opMu sync.RWMutex

	mu          sync.Mutex
	f           File
	size        int64 // bytes in the active log, including the header
	lastCompact int64 // log size right after the previous compaction
	holdsOut    int   // outstanding tentative holds (block compaction)
	wantCompact bool
	dirty       bool // appended but not yet synced (SyncInterval)
	closed      bool
	failed      error // sticky write/sync failure: the space is wedged
	stopFlush   func() bool

	// stalledUntil is the instant the slow-fsync Degraded flag lapses
	// (zero when the disk has been keeping up).
	stalledUntil time.Time

	// sinkMu is held across every call into inner that can match a parked
	// registration (see matching): the call collects in matched exactly
	// the deliveries it caused.
	sinkMu  sync.Mutex
	matched []delivery
}

var _ space.Space = (*Space)(nil)
var _ space.Syncer = (*Space)(nil)
var _ space.Degrader = (*Space)(nil)

// Open replays the log at path into inner (which must be empty), compacts
// it, and returns the durable wrapper with default Options. clk may be
// nil (wall clock).
func Open(path string, inner space.Space, clk clock.Clock) (*Space, error) {
	return OpenWith(path, inner, clk, Options{})
}

// OpenWith is Open with explicit Options. It fails loudly when the log
// cannot be replayed, swapped, or reopened — a durable space that cannot
// write is worse than no space at all.
func OpenWith(path string, inner space.Space, clk clock.Clock, opts Options) (*Space, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	opts.applyDefaults()
	s := &Space{
		inner: inner,
		clk:   clk,
		fs:    opts.FS,
		opts:  opts,
		met:   opts.Metrics,
		path:  path,
		dir:   filepath.Dir(path),
	}
	// A crash between a compaction's tmp write and its rename leaves a
	// stale tmp behind; the half-written snapshot must never be mistaken
	// for a log.
	_ = s.fs.Remove(path + ".tmp")
	if err := s.replay(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	err := s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("persist: open: %w", err)
	}
	if opts.Sync == SyncInterval {
		s.armFlush()
	}
	return s, nil
}

// Recovery returns what replay found when the space was opened.
func (s *Space) Recovery() RecoveryReport { return s.rep }

// replay applies the existing log to the inner space, salvaging every
// intact record: a record whose checksum or body fails is skipped and
// replay continues; only an unrecoverable tail is dropped.
func (s *Space) replay() error {
	data, err := s.fs.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: reading log: %w", err)
	}
	if len(data) < headerLen {
		// A torn initial creation (the header never made it). Compaction
		// recreates the file atomically, so this only happens to logs
		// written by foreign tools or truncated by the fault harness.
		s.rep.TornTail = len(data)
		s.account()
		return nil
	}
	if !bytes.Equal(data[:4], logMagic) {
		return fmt.Errorf("%s: bad magic %x: %w", s.path, data[:4], ErrBadLog)
	}
	if data[4] != logVersion {
		return fmt.Errorf("%s: log version %d: %w", s.path, data[4], ErrBadLog)
	}
	now := s.clk.Now()
	rest := data[headerLen:]
	for len(rest) > 0 {
		n, used := binary.Uvarint(rest)
		if used <= 0 || n == 0 || n > maxRecord || len(rest) < used+int(n)+4 {
			// No believable record here: either a crash tore the final
			// append, or a corrupted length prefix destroyed the record
			// framing. Without a boundary there is nothing to resync on.
			s.rep.TornTail = len(rest)
			break
		}
		body := rest[used : used+int(n)]
		trailer := rest[used+int(n) : used+int(n)+4]
		rest = rest[used+int(n)+4:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
			s.rep.Skipped++ // bit rot or an interrupted overwrite: salvage the rest
			continue
		}
		if err := s.apply(body, now); err != nil {
			return err
		}
	}
	s.account()
	return nil
}

// apply replays one checksum-verified record body.
func (s *Space) apply(body []byte, now time.Time) error {
	switch body[0] {
	case opOut:
		nanos, used := binary.Varint(body[1:])
		if used <= 0 {
			s.rep.Skipped++
			return nil
		}
		t, _, err := tuple.DecodeTuple(body[1+used:])
		if err != nil {
			s.rep.Skipped++
			return nil
		}
		var expiry time.Time
		if nanos != 0 {
			expiry = time.Unix(0, nanos)
			if !expiry.After(now) {
				s.rep.Replayed++ // applied, vacuously: expired while down
				return nil
			}
		}
		if _, err := s.inner.Out(t, expiry); err != nil {
			return fmt.Errorf("persist: replaying out: %w", err)
		}
		s.rep.Replayed++
	case opRemove:
		t, _, err := tuple.DecodeTuple(body[1:])
		if err != nil {
			s.rep.Skipped++
			return nil
		}
		s.inner.Inp(tuple.TemplateOf(t))
		s.rep.Replayed++
	default:
		s.rep.Skipped++
	}
	return nil
}

// account publishes the recovery report as counters.
func (s *Space) account() {
	s.met.Add(trace.CtrWALReplayed, int64(s.rep.Replayed))
	s.met.Add(trace.CtrWALSkipped, int64(s.rep.Skipped))
	s.met.Add(trace.CtrWALTornBytes, int64(s.rep.TornTail))
}

// header returns a fresh log header.
func header() []byte {
	h := make([]byte, 0, headerLen)
	h = append(h, logMagic...)
	return append(h, logVersion, 0, 0, 0)
}

// appendRecord frames body (length prefix + checksum trailer) onto buf.
func appendRecord(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// compactLocked rotates the log into a fresh segment holding a snapshot
// of the live inner space, atomically: tmp → fsync → rename → fsync dir.
// The caller holds s.mu, and either s.opMu (write) or exclusivity by
// construction (Open). Surviving tuples are written with zero expiry:
// leases shorter than a restart are about resource pressure on the
// device that held them; a restarted device renegotiates.
//
// A failure before the rename leaves the old segment in place and
// appendable — the error is reported but the space stays healthy. A
// failure after the rename wedges the space: the old descriptor now
// points at an unlinked inode, so pretending to append would lose data.
func (s *Space) compactLocked() error {
	tmp := s.path + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: compacting: %w", err)
	}
	buf := header()
	for _, t := range s.inner.Snapshot() {
		buf = appendRecord(buf, outRecord(t, time.Time{}))
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("persist: compacting: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("persist: swapping log: %w", err)
	}
	// Point of no return: the new segment is the log.
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.failLocked(fmt.Errorf("persist: syncing log directory: %w", err))
		return s.failed
	}
	nf, err := s.fs.OpenAppend(s.path)
	if err != nil {
		s.failLocked(fmt.Errorf("persist: reopening log: %w", err))
		return s.failed
	}
	if s.f != nil {
		_ = s.f.Close()
	}
	s.f = nf
	s.size = int64(len(buf))
	s.lastCompact = s.size
	s.dirty = false
	s.met.Inc(trace.CtrWALCompactions)
	return nil
}

// maybeCompact runs a pending size-triggered compaction once no
// operation is in flight and no tentative hold is outstanding (a held
// tuple is absent from the snapshot but may be reinstated, so compacting
// across it would lose it).
func (s *Space) maybeCompact() {
	s.mu.Lock()
	want := s.wantCompact && s.failed == nil && !s.closed && s.holdsOut == 0
	s.mu.Unlock()
	if !want {
		return
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.wantCompact || s.failed != nil || s.closed || s.holdsOut > 0 {
		return
	}
	s.wantCompact = false
	if err := s.compactLocked(); err != nil && s.failed == nil {
		// Pre-rename failure: the old segment is still good; appends
		// continue and the next threshold crossing retries.
		s.met.Inc(trace.CtrWALCompactErrors)
	}
}

// failLocked wedges the space with a sticky error. Caller holds s.mu.
func (s *Space) failLocked(err error) {
	if s.failed == nil {
		s.failed = fmt.Errorf("persist: log failed, space wedged: %w", err)
		s.met.Inc(trace.CtrWALFailures)
	}
}

func outRecord(t tuple.Tuple, expiry time.Time) []byte {
	body := []byte{opOut}
	var nanos int64
	if !expiry.IsZero() {
		nanos = expiry.UnixNano()
	}
	body = binary.AppendVarint(body, nanos)
	return t.AppendBinary(body)
}

func removeRecord(t tuple.Tuple) []byte {
	return t.AppendBinary([]byte{opRemove})
}

// log appends one record under the configured sync policy. An error
// means the record is not (reliably) durable; the caller must not ack
// the operation. Any write or sync failure wedges the space.
//
// wrote reports whether any bytes of the record may have reached the
// file: false when the append was refused before touching it (closed,
// already wedged, or a write that failed with zero bytes emitted), true
// once a write made progress — even partially — or a sync failed after a
// full write. Callers that undo a rejected removal (compensate) must
// only do so when wrote is true: a compensating out for a record that
// never landed would replay as a duplicate of the reinstated tuple.
func (s *Space) log(body []byte) (wrote bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.failed != nil {
		return false, s.failed
	}
	n, err := s.f.Write(appendRecord(nil, body))
	s.size += int64(n)
	if err != nil {
		s.failLocked(err)
		return n > 0, s.failed
	}
	s.met.Inc(trace.CtrWALAppends)
	switch s.opts.Sync {
	case SyncAlways:
		if err := s.syncLocked(); err != nil {
			return true, err
		}
	case SyncInterval:
		s.dirty = true
	}
	if s.opts.CompactAt > 0 && s.size >= s.opts.CompactAt && s.size >= 2*s.lastCompact {
		s.wantCompact = true
	}
	return true, nil
}

// compensate appends a compensating out record for a removal record
// that reached the log but could not be made durable before its
// operation was rejected and its tuple reinstated (ARIES's CLR idea in
// miniature). The space is already wedged, so this is best-effort and
// bypasses the sticky-error gate: a compensation that also fails leaves
// exactly the state of a crash at this instant — the unacked don't-care
// window — whereas one that lands squares the disk with the reinstated
// tuple. The tuple's original expiry is gone with the hold, so it is
// reinstated immortal: recovery errs on the side of keeping data.
func (s *Space) compensate(t tuple.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.f == nil {
		return
	}
	if _, err := s.f.Write(appendRecord(nil, outRecord(t, time.Time{}))); err == nil {
		_ = s.f.Sync()
	}
}

// syncLocked fsyncs the active segment, timing the call for the stall
// watchdog: a disk in limp mode acks writes but fsyncs in hundreds of
// milliseconds, which no error path ever reports — measuring is the only
// way to see it. Caller holds s.mu.
func (s *Space) syncLocked() error {
	start := s.clk.Now()
	if err := s.f.Sync(); err != nil {
		s.failLocked(err)
		return s.failed
	}
	if d := s.clk.Now().Sub(start); s.opts.StallThreshold > 0 && d >= s.opts.StallThreshold {
		s.stalledUntil = s.clk.Now().Add(s.opts.StallDecay)
		s.met.Inc(trace.CtrWALStalls)
	}
	s.dirty = false
	s.met.Inc(trace.CtrWALSyncs)
	return nil
}

// Degraded implements space.Degrader: the space is serving but its disk
// is limping (a recent fsync exceeded StallThreshold). The flag decays
// StallDecay after the last stall, so a transient hiccup clears on its
// own while a persistently slow disk keeps it set.
func (s *Space) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.stalledUntil.IsZero() && s.clk.Now().Before(s.stalledUntil)
}

// Sync flushes buffered appends to stable storage (space.Syncer).
func (s *Space) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	return s.syncLocked()
}

// armFlush schedules the SyncInterval background flush.
func (s *Space) armFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.failed != nil {
		return
	}
	s.stopFlush = s.clk.AfterFunc(s.opts.SyncEvery, s.flushTick)
}

func (s *Space) flushTick() {
	s.mu.Lock()
	if s.closed || s.failed != nil {
		s.mu.Unlock()
		return
	}
	if s.dirty {
		_ = s.syncLocked() // a failure wedges; ops surface it
	}
	s.mu.Unlock()
	s.armFlush()
}

// Out implements space.Space: log first, then apply. The tuple is only
// acked once its record is durable under the sync policy. An id of 0 —
// a parked in consumed the tuple on the way — is not logged here: one
// removal record per consumed tuple, and the consuming waiter's pump
// writes it, before it delivers, whatever fed the waiter. Replay removes
// by content, so a second record would take an equal tuple stored since
// with it. A crash between the two records leaves the tuple in the space
// and the waiter undelivered.
func (s *Space) Out(t tuple.Tuple, expiry time.Time) (id uint64, err error) {
	s.opMu.RLock()
	if _, err := s.log(outRecord(t, expiry)); err != nil {
		s.opMu.RUnlock()
		return 0, err
	}
	calls := s.matching(func() { id, err = s.inner.Out(t, expiry) })
	s.opMu.RUnlock()
	run(calls)
	s.maybeCompact()
	return id, err
}

// Rdp implements space.Space (reads need no logging).
func (s *Space) Rdp(p tuple.Template) (tuple.Tuple, bool) { return s.inner.Rdp(p) }

// Inp implements space.Space. The removal is tentative until its record
// is durable: if the log rejects it the tuple is reinstated (with its
// expiry intact) and the take reports no match — the caller must never
// hold a tuple whose removal a restart would undo.
func (s *Space) Inp(p tuple.Template) (tuple.Tuple, bool) {
	s.opMu.RLock()
	h, ok := s.inner.Hold(p)
	if !ok {
		s.opMu.RUnlock()
		return tuple.Tuple{}, false
	}
	t := h.Tuple()
	if wrote, err := s.log(removeRecord(t)); err != nil {
		if wrote {
			s.compensate(t) // the removal record may have landed; undo it
		}
		calls := s.matching(h.Release)
		s.opMu.RUnlock()
		run(calls)
		return tuple.Tuple{}, false
	}
	h.Accept()
	s.opMu.RUnlock()
	s.maybeCompact()
	return t, true
}

// Wait implements space.Space; removals by taking waiters are logged on
// delivery.
func (s *Space) Wait(p tuple.Template, remove bool) space.Waiter {
	inner := s.inner.Wait(p, remove)
	if !remove {
		return inner
	}
	w := &loggedWaiter{s: s, inner: inner, ch: make(chan tuple.Tuple, 1)}
	go w.pump()
	return w
}

type loggedWaiter struct {
	s     *Space
	inner space.Waiter
	ch    chan tuple.Tuple
}

func (w *loggedWaiter) pump() {
	t, ok := <-w.inner.Chan()
	if ok {
		w.s.opMu.RLock()
		wrote, err := w.s.log(removeRecord(t))
		if err != nil {
			// The removal is not durable and the space is now wedged.
			// Reinstate the tuple (expiry is lost — the store already
			// dropped it), compensate on disk if the removal record may
			// have landed, and deliver nothing: a closed channel reads as
			// a cancelled waiter, which matches the durable state.
			if wrote {
				w.s.compensate(t)
			}
			calls := w.s.matching(func() { _, _ = w.s.inner.Out(t, time.Time{}) })
			w.s.opMu.RUnlock()
			run(calls)
			close(w.ch)
			return
		}
		w.s.opMu.RUnlock()
		w.ch <- t
	}
	close(w.ch)
}

func (w *loggedWaiter) Chan() <-chan tuple.Tuple { return w.ch }

func (w *loggedWaiter) Cancel() bool { return w.inner.Cancel() }

// Park implements space.Space. The inner space calls the registered sink
// inside whichever inner call made the match — a read-locked Out or Park,
// or the Release of a hold still counted in holdsOut — so a hold is
// wrapped as a loggedHold and counted right there, with no window in
// which a compaction could find it neither in the snapshot nor in
// holdsOut. The caller's sink runs later on the same goroutine, once
// that call has dropped opMu: a sink may release its hold, and a release
// that compacts takes opMu for writing.
func (s *Space) Park(p tuple.Template, take bool, sink space.Sink) space.Parked {
	ls := &loggedSink{s: s, sink: sink}
	var h space.Parked
	s.opMu.RLock()
	calls := s.matching(func() { h = s.inner.Park(p, take, ls) })
	s.opMu.RUnlock()
	run(calls)
	return h
}

// loggedSink stands in the inner space for a Park caller's sink.
type loggedSink struct {
	s    *Space
	sink space.Sink
}

// Deliver implements space.Sink. The caller up-stack holds sinkMu.
func (ls *loggedSink) Deliver(t tuple.Tuple, h space.Hold) {
	s := ls.s
	if h != nil {
		s.mu.Lock()
		s.holdsOut++
		s.mu.Unlock()
		h = &loggedHold{s: s, inner: h}
	}
	s.matched = append(s.matched, delivery{ls.sink, t, h})
}

// delivery is a Park caller's sink call, owed for a match the inner space
// has made.
type delivery struct {
	sink space.Sink
	t    tuple.Tuple
	h    space.Hold
}

// matching runs f, a call into inner that may match parked registrations,
// and returns the deliveries it caused, for the caller to run once it
// holds no lock.
func (s *Space) matching(f func()) []delivery {
	s.sinkMu.Lock()
	defer s.sinkMu.Unlock()
	f()
	calls := s.matched
	s.matched = nil
	return calls
}

func run(calls []delivery) {
	for _, d := range calls {
		d.sink.Deliver(d.t, d.h)
	}
}

// Hold implements space.Space; the removal becomes durable on Accept.
// Outstanding holds defer online compaction (their tuples are invisible
// to the snapshot but may yet be reinstated), so every Hold MUST be
// settled with Accept or Release: a leaked hold blocks size-triggered
// compaction until restart and lets the log grow without bound. The
// core layer settles remote holds via grace timers; direct callers
// carry that obligation themselves.
func (s *Space) Hold(p tuple.Template) (space.Hold, bool) {
	s.opMu.RLock()
	h, ok := s.inner.Hold(p)
	if ok {
		s.mu.Lock()
		s.holdsOut++
		s.mu.Unlock()
	}
	s.opMu.RUnlock()
	if !ok {
		return nil, false
	}
	return &loggedHold{s: s, inner: h}, true
}

// loggedHold is settled by whichever of Accept and Release comes first,
// with no lock of its own held meanwhile: a release may run a sink.
type loggedHold struct {
	s       *Space
	inner   space.Hold
	settled atomic.Bool
}

func (h *loggedHold) Tuple() tuple.Tuple { return h.inner.Tuple() }

func (h *loggedHold) ID() uint64 { return h.inner.ID() }

func (h *loggedHold) Accept() {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	h.s.opMu.RLock()
	// Accept even if logging fails: the requester already has the
	// tuple, so reinstating it would duplicate. The failure wedges
	// the space; a restart may resurrect this one tuple — the
	// documented cost of accepting on a dying log.
	_, _ = h.s.log(removeRecord(h.inner.Tuple()))
	h.inner.Accept()
	h.s.opMu.RUnlock()
	h.s.holdSettled()
}

func (h *loggedHold) Release() {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	// The reinstated tuple may go straight to the next parked taker, whose
	// hold is counted before this one is uncounted.
	calls := h.s.matching(h.inner.Release)
	h.s.holdSettled()
	run(calls)
}

func (s *Space) holdSettled() {
	s.mu.Lock()
	s.holdsOut--
	s.mu.Unlock()
	s.maybeCompact()
}

// Remove implements space.Space.
func (s *Space) Remove(id uint64) bool {
	// The inner id is opaque; finding the tuple via snapshot-diff is too
	// expensive, so Remove logs nothing by itself — callers that use
	// Remove (lease revocation) pair it with expiry semantics that the
	// replay already honours, and the compaction on the next Open (or the
	// next size-triggered rotation) squares the log with the space.
	return s.inner.Remove(id)
}

// Count implements space.Space.
func (s *Space) Count() int { return s.inner.Count() }

// Bytes implements space.Space.
func (s *Space) Bytes() int64 { return s.inner.Bytes() }

// Snapshot implements space.Space.
func (s *Space) Snapshot() []tuple.Tuple { return s.inner.Snapshot() }

// LogSize returns the active segment's size in bytes (diagnostics).
func (s *Space) LogSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Close flushes and closes the log and the inner space.
func (s *Space) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.stopFlush
	f := s.f
	wedged := s.failed != nil
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	var err error
	if f != nil {
		if serr := f.Sync(); serr != nil && !wedged {
			err = serr
		}
		if cerr := f.Close(); cerr != nil && err == nil && !wedged {
			err = cerr
		}
	}
	if ierr := s.inner.Close(); ierr != nil && err == nil {
		err = ierr
	}
	return err
}
