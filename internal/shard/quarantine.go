// Shard quarantine: degraded-mode operation under media faults.
//
// A shard whose device trips uncorrectable media faults (pmem.ErrMediaFault)
// — at Reopen, because recovery found torn or rotted state, or mid-operation
// — is QUARANTINED rather than taking the whole store down: its keys answer
// with the typed *UnavailError while every other shard keeps serving, and
// the Scrub admin path re-formats the partition and readmits it. Transient
// faults get a bounded retry with backoff before quarantine triggers.
//
// The invariant the quarantine path preserves is the repo-wide media-fault
// contract: an acknowledged write is either served correctly or reported
// lost with a typed error — never silently served wrong. Quarantine reports;
// scrub admits the loss explicitly (the partition restarts empty, except for
// any in-doubt cross-shard batch the coordinator log can roll forward).
package shard

import (
	"errors"
	"fmt"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// ErrShardUnavailable is the sentinel every *UnavailError unwraps to.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// UnavailError reports an operation refused because its shard is
// quarantined. The Error string is the wire-level reply romulusd sends
// ("UNAVAIL shard=N: reason"), so servers can pass it through verbatim.
type UnavailError struct {
	Shard  int
	Reason string
}

func (e *UnavailError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("UNAVAIL shard=%d", e.Shard)
	}
	return fmt.Sprintf("UNAVAIL shard=%d: %s", e.Shard, e.Reason)
}

func (e *UnavailError) Unwrap() error { return ErrShardUnavailable }

// unavail builds the typed refusal for shard i with its recorded reason.
func (s *Store) unavail(i int) *UnavailError {
	p := s.parts()[i]
	p.mu.RLock()
	r := p.reason
	p.mu.RUnlock()
	return &UnavailError{Shard: i, Reason: r}
}

// quarantine marks shard i FAULTED (idempotently) with cause as the reason.
func (s *Store) quarantine(i int, cause error) {
	p := s.parts()[i]
	p.mu.Lock()
	if !p.faulted.Load() {
		p.reason = cause.Error()
		p.faulted.Store(true)
		s.quarantineN.Inc()
	}
	p.mu.Unlock()
}

// faultRetries bounds per-operation retries on a media fault before the
// fault is treated as permanent: one is enough for the device's transient
// faults, which self-clear after one trip.
const faultRetries = 1

// onShard runs op against shard i under the shard's read lock, translating
// media faults into quarantine: a transient fault is retried at once, up to
// faultRetries times, and a fault that survives the retries quarantines the
// shard and returns the typed *UnavailError.
func (s *Store) onShard(i int, op func(p *shardPart) error) error {
	p := s.parts()[i]
	for attempt := 0; ; attempt++ {
		if p.faulted.Load() {
			return s.unavail(i)
		}
		p.mu.RLock()
		if p.faulted.Load() || p.eng == nil {
			p.mu.RUnlock()
			return s.unavail(i)
		}
		err := op(p)
		p.mu.RUnlock()
		if err == nil || !errors.Is(err, pmem.ErrMediaFault) {
			return err
		}
		s.faultMedia.Inc()
		if attempt < faultRetries {
			s.faultRetry.Inc()
			continue
		}
		s.quarantine(i, err)
		return s.unavail(i)
	}
}

// quarantinedOnOpen reports whether a shard-open failure is media damage a
// degraded reopen should quarantine (vs a config error that must fail open).
func quarantinedOnOpen(err error) bool {
	return errors.Is(err, pmem.ErrMediaFault) ||
		errors.Is(err, ptm.ErrCorruptHeader) ||
		errors.Is(err, ptm.ErrCorruptLog) ||
		errors.Is(err, ptm.ErrCorruptPayload)
}

// Quarantined returns the indices of currently quarantined shards.
func (s *Store) Quarantined() []int {
	var out []int
	for i, p := range s.parts() {
		if p.faulted.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Scrub re-formats a quarantined shard on a fresh device and readmits it:
// the partition restarts empty (the media loss is admitted, not hidden), and
// any in-doubt cross-shard batch still prepared on the coordinator log is
// rolled forward onto the fresh shard — so a cross-shard batch that was
// acknowledged before the fault is restored rather than lost. Returns an
// error if the shard is not quarantined, if the rebuild fails, or if the
// coordinator resolution fails (the shard is readmitted either way).
func (s *Store) Scrub(i int) error {
	parts := s.parts()
	if i < 0 || i >= len(parts) {
		return fmt.Errorf("shard: scrub: no shard %d", i)
	}
	p := parts[i]
	if !p.faulted.Load() {
		return fmt.Errorf("shard: scrub: shard %d is not quarantined", i)
	}
	dev, err := s.opts.blankShard()
	if err != nil {
		return fmt.Errorf("shard: scrub %d: %w", i, err)
	}
	// A fresh recorder on the fresh device; the quarantined device's ring
	// (if any) goes with it — its flight data described lost media.
	scrubbed, err := s.openShard(i, dev, nil)
	if err != nil {
		return fmt.Errorf("shard: scrub %d: %w", i, err)
	}
	// The old engine (if any) is abandoned, not Closed: Close would report
	// auditor state for a partition whose loss was just admitted.
	p.mu.Lock()
	p.eng, p.db, p.dev, p.bb = scrubbed.eng, scrubbed.db, scrubbed.dev, scrubbed.bb
	p.flight, p.aud, p.reason = scrubbed.flight, scrubbed.aud, scrubbed.reason
	p.faulted.Store(scrubbed.faulted.Load())
	p.mu.Unlock()
	s.faultScrub.Inc()
	return s.coord.resolve(s)
}
