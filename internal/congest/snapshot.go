package congest

// Checkpoint/resume for long builds. The trace package owns the on-disk
// envelope (trace.Checkpoint: schema-versioned, CRC-guarded, named word
// sections); this file owns the orchestration and the engine's own section.
//
// A build declares named units of work — e.g. the ten tree-routing phases —
// with UnitDone/Mark brackets. Every Mark writes a full checkpoint at a
// quiescent point: no Run is in flight, so no inbox, edge queue, active list
// or timer holds state. On resume, completed units are skipped; everything
// *before* the unit sequence (hierarchy sampling, the cheap construction
// phases) re-executes deterministically from its seed, regenerating the
// builder state that is never serialised. When the unit cursor catches up,
// the engine section overwrites the replayed counters/meters/fault state
// with the checkpointed values, and each registered provider's section
// restores the durable per-vertex arrays of the skipped units.
//
// Determinism: the serialised engine section is identical at every shard
// count (fault cursors are written in ascending edge order). See DESIGN.md
// §15.

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/trace"
)

// CkptProvider is implemented by subsystems whose durable state must survive
// a checkpoint: the tree-routing builder (per-tree member arrays). The
// engine registers and restores providers through a Checkpointer.
type CkptProvider interface {
	// CkptSection names this provider's section, unique per checkpoint
	// (e.g. "treeroute.builder").
	CkptSection() string
	// AppendCkpt serialises the provider's durable state onto dst.
	AppendCkpt(dst []uint64) []uint64
	// RestoreCkpt rebuilds the durable state from a section payload.
	RestoreCkpt(words []uint64) error
}

// EngineSection is the name of the simulator's own checkpoint section.
const EngineSection = "congest.engine"

// engineCkptVersion is the engine section version written. Versions 1 and 2
// differ only in the mid-Run tail (pending timers, added in version 2) that
// a quiescent section never carries, so both restore. A section with a
// non-zero flag word was written mid-Run and is rejected.
const engineCkptVersion = 2

// Checkpointer orchestrates checkpoint writes and resume for one simulator
// and its providers. All methods are nil-receiver safe, so call sites pass a
// possibly-nil *Checkpointer without branching. A Checkpointer is not safe
// for concurrent use.
type Checkpointer struct {
	path   string
	meta   map[string]string
	onMark func(unit string, step int64)

	sim       *Simulator
	providers []CkptProvider

	// Resume state: the loaded checkpoint, its unit cursor target, the raw
	// engine section, and its decoding (validated at Attach) held until
	// the replay catches up.
	resume      *trace.Checkpoint
	target      int64
	engineWords []uint64
	engine      *engineImage
	restored    bool

	step int64 // units completed (skipped or executed) this run
	buf  []uint64
	err  error
}

// NewCheckpointer creates a fresh checkpointer writing to path at every unit
// mark.
func NewCheckpointer(path string) *Checkpointer {
	return &Checkpointer{path: path, meta: map[string]string{}}
}

// ResumeCheckpointer loads the checkpoint at path and returns a checkpointer
// that will resume from it: schema and CRC validated, engine section located,
// unit cursor parsed. Attach decodes and validates the engine section
// against the simulator.
func ResumeCheckpointer(path string) (*Checkpointer, error) {
	c, err := trace.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	ck := NewCheckpointer(path)
	ck.resume = c
	if u, ok := c.Meta["units"]; ok {
		t, err := strconv.ParseInt(u, 10, 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("congest: checkpoint %s has bad units cursor %q", path, u)
		}
		ck.target = t
	}
	words, ok, err := c.Section(EngineSection)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("congest: checkpoint %s has no %q section", path, EngineSection)
	}
	ck.engineWords = words
	return ck, nil
}

// SetMeta records an identity key (family, n, k, seed, ...) stamped into
// every written checkpoint. On a resuming checkpointer it also validates the
// key against the loaded snapshot, so a resume under a different
// configuration fails loudly instead of silently diverging.
func (ck *Checkpointer) SetMeta(key, value string) error {
	if ck == nil {
		return nil
	}
	if ck.resume != nil {
		if got, ok := ck.resume.Meta[key]; ok && got != value {
			return fmt.Errorf("congest: checkpoint %s was written with %s=%s, this run has %s=%s",
				ck.path, key, got, key, value)
		}
	}
	ck.meta[key] = value
	return nil
}

// SetOnMark installs a hook invoked after each unit-boundary checkpoint
// write (progress reporting, test instrumentation).
func (ck *Checkpointer) SetOnMark(fn func(unit string, step int64)) {
	if ck != nil {
		ck.onMark = fn
	}
}

// Attach binds the checkpointer to the simulator it snapshots. On a resuming
// checkpointer it decodes and validates the whole engine section against
// the simulator — shape (vertex count, edge count, capacity), layout, and
// fault cursors — so the later restore cannot fail halfway. The simulator
// is not touched until the unit cursor catches up.
func (ck *Checkpointer) Attach(sim *Simulator) error {
	if ck == nil {
		return nil
	}
	ck.sim = sim
	if ck.resume == nil {
		return nil
	}
	img, err := sim.decodeEngineCkpt(ck.engineWords)
	if err != nil {
		return fmt.Errorf("congest: checkpoint %s: %w", ck.path, err)
	}
	ck.engine = img
	if ck.target == 0 {
		// A snapshot with no completed units records nothing the
		// deterministic replay will not regenerate.
		ck.restored = true
	}
	return nil
}

// Register adds a provider whose section is written into every checkpoint.
// If the resumed state has already been applied (the unit cursor caught
// up), the provider's section is restored immediately; otherwise it
// restores when the cursor catches up.
func (ck *Checkpointer) Register(p CkptProvider) error {
	if ck == nil {
		return nil
	}
	ck.providers = append(ck.providers, p)
	if ck.restored && ck.resume != nil {
		return ck.restoreProvider(p)
	}
	return nil
}

// UnitDone reports whether the named unit's effects are already contained in
// the resumed checkpoint — the caller skips the unit when true. When the
// skip cursor reaches the checkpoint's recorded position, the engine and
// provider sections are applied, so the next unit runs on exactly the state
// the original run had at that boundary. The engine section was validated
// at Attach and applies whole; a provider section that fails to restore is
// an error, and the caller must abandon the build.
func (ck *Checkpointer) UnitDone(unit string) (bool, error) {
	if ck == nil || ck.resume == nil || ck.restored || ck.step >= ck.target {
		return false, nil
	}
	ck.step++
	if ck.step == ck.target {
		if err := ck.applyResume(); err != nil {
			return false, fmt.Errorf("congest: applying resumed checkpoint %s at unit %q: %w", ck.path, unit, err)
		}
	}
	return true, nil
}

// Mark records completion of a unit and writes a full checkpoint at this
// quiescent point.
func (ck *Checkpointer) Mark(unit string) {
	if ck == nil {
		return
	}
	ck.step++
	ck.write()
	if ck.onMark != nil {
		ck.onMark(unit, ck.step)
	}
}

// Err reports the first checkpoint-write failure, or a resume whose unit
// cursor was never reached (the run declared fewer units than the snapshot
// recorded — a configuration mismatch the meta validation could not catch).
// Callers check it once after the build.
func (ck *Checkpointer) Err() error {
	if ck == nil {
		return nil
	}
	if ck.err != nil {
		return ck.err
	}
	if ck.resume != nil && !ck.restored {
		return fmt.Errorf("congest: resumed checkpoint %s records %d completed units, but this run reached only %d",
			ck.path, ck.target, ck.step)
	}
	return nil
}

// applyResume restores the engine section and every registered provider's
// section from the loaded checkpoint.
func (ck *Checkpointer) applyResume() error {
	if ck.engine == nil {
		return errors.New("no simulator attached")
	}
	ck.sim.applyEngineCkpt(ck.engine)
	ck.restored = true
	for _, p := range ck.providers {
		if err := ck.restoreProvider(p); err != nil {
			return err
		}
	}
	return nil
}

func (ck *Checkpointer) restoreProvider(p CkptProvider) error {
	words, ok, err := ck.resume.Section(p.CkptSection())
	if err != nil {
		return err
	}
	if !ok {
		// A provider the original run did not have (it registered after the
		// last write): nothing to restore, its units re-run.
		return nil
	}
	if err := p.RestoreCkpt(words); err != nil {
		return fmt.Errorf("congest: restore section %q: %w", p.CkptSection(), err)
	}
	return nil
}

// write assembles and atomically writes a checkpoint. Write failures latch
// into Err rather than aborting the build: a full disk should not kill a
// multi-hour computation that can still finish.
func (ck *Checkpointer) write() {
	if ck.sim == nil {
		if ck.err == nil {
			ck.err = errors.New("congest: checkpoint write before Attach")
		}
		return
	}
	c := &trace.Checkpoint{Meta: make(map[string]string, len(ck.meta)+1)}
	for k, v := range ck.meta {
		c.Meta[k] = v
	}
	c.Meta["units"] = strconv.FormatInt(ck.step, 10)
	c.Round = ck.sim.rounds
	ck.buf = ck.sim.appendEngineCkpt(ck.buf[:0])
	c.AddSection(EngineSection, ck.buf)
	for _, p := range ck.providers {
		c.AddSection(p.CkptSection(), p.AppendCkpt(nil))
	}
	if err := trace.WriteCheckpointFile(ck.path, c); err != nil && ck.err == nil {
		ck.err = err
	}
}

// appendEngineCkpt serialises the simulator's engine section at a quiescent
// point: version and a zero flag word, the shape (n, directed edges,
// capacity), global counters, per-vertex meters, fault tallies and the
// per-edge fault cursors, sparse and in ascending edge order, so the bytes
// are identical at every shard count.
func (s *Simulator) appendEngineCkpt(dst []uint64) []uint64 {
	s.ensureTopology()
	dst = append(dst, engineCkptVersion, 0,
		uint64(int64(s.N())), uint64(int64(len(s.outTo))), uint64(int64(s.capacity)),
		uint64(s.rounds), uint64(s.messages), uint64(s.words))
	for i := range s.meters {
		m := &s.meters[i]
		dst = append(dst, uint64(m.current), uint64(m.peak), uint64(m.window))
	}
	c := s.faultCtr
	dst = append(dst, uint64(c.Dropped), uint64(c.Retried), uint64(c.Lost),
		uint64(c.Duplicated), uint64(c.DelayRounds), uint64(c.Discarded), uint64(c.RetryWords))
	// Per-edge fault cursors, sparse: almost every edge is at its zero state.
	cntAt := len(dst)
	dst = append(dst, 0)
	var fqCount uint64
	for e := range s.faultQ {
		fq := &s.faultQ[e]
		if fq.seq == 0 && fq.attempt == 0 && fq.hold == 0 && !fq.rolled {
			continue
		}
		dst = append(dst, uint64(int64(e)), fq.seq,
			uint64(int64(fq.attempt)), uint64(int64(fq.hold)), BoolWord(fq.rolled))
		fqCount++
	}
	dst[cntAt] = fqCount
	return dst
}

// engineImage is a decoded, validated engine section: everything
// applyEngineCkpt writes into the simulator.
type engineImage struct {
	rounds, messages, words int64
	meters                  []Meter
	faultCtr                faults.Counters
	cursors                 []faultCursor // ascending edge order
}

// faultCursor is one edge's non-zero fault state.
type faultCursor struct {
	e  int
	st edgeFaultState
}

// decodeEngineCkpt decodes an engine section against this simulator's
// shape and fault plan. Anything but the canonical quiescent layout
// appendEngineCkpt writes is an error, never a panic (DESIGN.md §15 lists
// the checks); the simulator is not modified.
func (s *Simulator) decodeEngineCkpt(words []uint64) (*engineImage, error) {
	s.ensureTopology()
	s.ensureFaults()
	r := trace.NewWordReader(words)
	if version := r.Word(); version < 1 || version > engineCkptVersion {
		return nil, fmt.Errorf("congest: engine section version %d, want 1..%d", version, engineCkptVersion)
	}
	if flags := r.Word(); flags != 0 {
		return nil, fmt.Errorf("congest: engine section flags %#x: only quiescent (unit-mark) images restore", flags)
	}
	if n := r.Int(); n != s.N() {
		return nil, fmt.Errorf("congest: engine section is for n=%d, simulator has n=%d", n, s.N())
	}
	if ne := r.Int(); ne != len(s.outTo) {
		return nil, fmt.Errorf("congest: engine section is for %d directed edges, simulator has %d", ne, len(s.outTo))
	}
	if c := r.Int(); c != s.capacity {
		return nil, fmt.Errorf("congest: engine section was taken with edge capacity %d, simulator has %d", c, s.capacity)
	}
	img := &engineImage{
		rounds: int64(r.Word()), messages: int64(r.Word()), words: int64(r.Word()),
		meters: make([]Meter, len(s.meters)),
	}
	for i := range img.meters {
		img.meters[i] = Meter{current: int64(r.Word()), peak: int64(r.Word()), window: int64(r.Word())}
	}
	c := &img.faultCtr
	c.Dropped, c.Retried, c.Lost = int64(r.Word()), int64(r.Word()), int64(r.Word())
	c.Duplicated, c.DelayRounds = int64(r.Word()), int64(r.Word())
	c.Discarded, c.RetryWords = int64(r.Word()), int64(r.Word())
	// A count the section cannot back reads as 0 and fails r.Done.
	fqCount := r.Count(5)
	if fqCount > 0 && s.faultQ == nil {
		return nil, errors.New("congest: engine section carries fault state but the simulator has no fault plan")
	}
	img.cursors = make([]faultCursor, 0, fqCount)
	for i, prev := 0, -1; i < fqCount; i++ {
		e := r.Int()
		seq := r.Word()
		attempt, hold, rolled := r.Int(), r.Int(), r.Bool()
		if e <= prev || e >= len(s.faultQ) || attempt < 0 || attempt > math.MaxInt32 || hold < 0 || hold > math.MaxInt32 {
			return nil, fmt.Errorf("congest: engine section fault state (edge %d, attempt %d, hold %d) out of range or order", e, attempt, hold)
		}
		prev = e
		img.cursors = append(img.cursors, faultCursor{e: e,
			st: edgeFaultState{seq: seq, attempt: int32(attempt), hold: int32(hold), rolled: rolled}})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return img, nil
}

// applyEngineCkpt overwrites the simulator's counters, meters and fault
// state with a decoded image. The image was validated against this
// simulator, so applying it cannot fail.
func (s *Simulator) applyEngineCkpt(img *engineImage) {
	s.rounds, s.messages, s.words = img.rounds, img.messages, img.words
	copy(s.meters, img.meters)
	s.faultCtr = img.faultCtr
	clear(s.faultQ)
	for _, fc := range img.cursors {
		s.faultQ[fc.e] = fc.st
	}
}
