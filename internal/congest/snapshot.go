package congest

// Checkpoint/resume for long simulations. The trace package owns the on-disk
// envelope (trace.Checkpoint: schema-versioned, CRC-guarded, named word
// sections); this file owns the orchestration and the engine's own section.
//
// The model has two granularities:
//
//   - Unit granularity (default): a build declares named units of work —
//     e.g. the ten tree-routing phases — with UnitDone/Mark brackets. Every
//     Mark writes a full checkpoint at a quiescent point (no mid-round
//     state). On resume, completed units are skipped; everything *before*
//     the unit sequence (hierarchy sampling, the cheap construction phases)
//     re-executes deterministically from its seed, regenerating the builder
//     state that is never serialised. When the unit cursor catches up, the
//     engine section overwrites the replayed counters/meters/fault state
//     with the checkpointed values, and each registered provider's section
//     restores the durable per-vertex arrays of the skipped units.
//
//   - Mid-run granularity (MidRun(true)): the engine additionally writes a
//     checkpoint every N executed rounds *inside* Run, capturing the live
//     active list, inboxes, edge queues, dirty worklists and WakeAt timers.
//     Resume lands in the middle of the interrupted Run: the next Run call
//     on the simulator continues at the recorded round, byte-identical to a
//     run that was never interrupted (pinned by TestRunResumeEquivalence
//     and TestWakeAtResumeEquivalence). Mid-run snapshots require the
//     handler's state to be round-boundary-consistent, so it is opt-in (the
//     hopset explorer and tree-routing's local-dfs qualify; the tree-routing
//     convergecasts do not, hence their phase-level units).
//
// Determinism: the serialised engine section is identical at every shard
// count. Inboxes are written in active-list order (sorted), dirty
// destinations ascending, and each destination's backlogged edges in
// ascending edge order — all orders the delivery path itself re-canonises,
// so restoring them loses nothing. See DESIGN.md §15.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"lowmemroute/internal/trace"
)

// CkptProvider is implemented by subsystems whose durable state must survive
// a checkpoint: the hopset explorer (per-vertex exploration entries), the
// tree-routing builder (per-tree member arrays). The engine registers and
// restores providers through a Checkpointer.
type CkptProvider interface {
	// CkptSection names this provider's section, unique per checkpoint
	// (e.g. "hopset.explorer").
	CkptSection() string
	// AppendCkpt serialises the provider's durable state onto dst.
	AppendCkpt(dst []uint64) []uint64
	// RestoreCkpt rebuilds the durable state from a section payload.
	RestoreCkpt(words []uint64) error
}

// EngineSection is the name of the simulator's own checkpoint section.
const EngineSection = "congest.engine"

// Engine section versions: version 2 appends the pending WakeAt timers to a
// mid-Run image; version-1 sections (no timers) still restore.
const (
	engineCkptVersion = 2
	engineFlagMid     = 1 << 0 // section carries mid-Run state
)

// Checkpointer orchestrates checkpoint writes and resume for one simulator
// and its providers. All methods are nil-receiver safe, so call sites pass a
// possibly-nil *Checkpointer without branching. A Checkpointer is not safe
// for concurrent use; the engine only calls it from serial points.
type Checkpointer struct {
	path   string
	every  int64
	midRun bool
	meta   map[string]string
	onMark func(unit string, step int64)

	sim       *Simulator
	providers []CkptProvider

	// Resume state: the loaded checkpoint, its unit cursor target, and the
	// validated engine section held until the replay catches up.
	resume      *trace.Checkpoint
	target      int64
	resumeMid   bool
	engineWords []uint64
	restored    bool

	step    int64 // units completed (skipped or executed) this run
	lastMid int64 // executed count at the last mid-run write
	buf     []uint64
	err     error
}

// NewCheckpointer creates a fresh checkpointer writing to path. every is the
// mid-run write cadence in executed rounds (only active after MidRun(true));
// unit marks always write regardless of cadence.
func NewCheckpointer(path string, every int64) *Checkpointer {
	return &Checkpointer{path: path, every: every, meta: map[string]string{}}
}

// ResumeCheckpointer loads the checkpoint at path and returns a checkpointer
// that will resume from it: schema and CRC validated, engine section located,
// unit cursor parsed. Attach validates the simulator against the snapshot.
func ResumeCheckpointer(path string, every int64) (*Checkpointer, error) {
	c, err := trace.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	ck := NewCheckpointer(path, every)
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
	if len(words) < 2 || words[0] < 1 || words[0] > engineCkptVersion {
		return nil, fmt.Errorf("congest: checkpoint %s engine section version mismatch", path)
	}
	ck.engineWords = words
	ck.resumeMid = words[1]&engineFlagMid != 0
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

// MidRun toggles mid-Run engine snapshots (see the file comment). Off by
// default: only enable it when every registered provider's state is
// consistent at arbitrary round boundaries.
func (ck *Checkpointer) MidRun(on bool) {
	if ck != nil {
		ck.midRun = on
	}
}

// SetOnMark installs a hook invoked after each unit-boundary checkpoint
// write (progress reporting, test instrumentation).
func (ck *Checkpointer) SetOnMark(fn func(unit string, step int64)) {
	if ck != nil {
		ck.onMark = fn
	}
}

// Attach binds the checkpointer to the simulator it snapshots. On a resuming
// checkpointer it validates the engine section's shape against the
// simulator (vertex count, edge count, capacity), and — when the snapshot
// was taken mid-Run with no completed units — restores the engine state
// immediately, leaving the simulator ready to continue its interrupted Run.
func (ck *Checkpointer) Attach(sim *Simulator) error {
	if ck == nil {
		return nil
	}
	ck.sim = sim
	sim.ckpt = ck
	if ck.resume == nil {
		return nil
	}
	// Shape validation up front: after this, applying the section cannot
	// fail on dimensions (the CRC already rules out corruption).
	sim.ensureTopology()
	r := trace.NewWordReader(ck.engineWords)
	r.Word() // version, checked at load
	r.Word() // flags
	if n := r.Int(); n != sim.topoN {
		return fmt.Errorf("congest: checkpoint %s is for n=%d, simulator has n=%d", ck.path, n, sim.topoN)
	}
	if ne := r.Int(); ne != len(sim.outTo) {
		return fmt.Errorf("congest: checkpoint %s is for %d directed edges, simulator has %d", ck.path, ne, len(sim.outTo))
	}
	if c := r.Int(); c != sim.capacity {
		return fmt.Errorf("congest: checkpoint %s was taken with edge capacity %d, simulator has %d", ck.path, c, sim.capacity)
	}
	if ck.target == 0 {
		if ck.resumeMid {
			return ck.applyResume()
		}
		// A quiescent snapshot with no completed units records nothing the
		// deterministic replay will not regenerate.
		ck.restored = true
	}
	return nil
}

// Register adds a provider whose section is written into every checkpoint.
// If the resumed state has already been applied (the unit cursor caught up,
// or a mid-Run snapshot restored at Attach), the provider's section is
// restored immediately; otherwise it restores when the cursor catches up.
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
// the original run had at that boundary.
func (ck *Checkpointer) UnitDone(unit string) bool {
	if ck == nil || ck.resume == nil || ck.restored || ck.step >= ck.target {
		return false
	}
	ck.step++
	if ck.step == ck.target {
		if err := ck.applyResume(); err != nil {
			// Shape was validated at Attach and the file CRC at load; this
			// is writer/reader version skew, unrecoverable mid-build.
			panic(fmt.Sprintf("congest: applying resumed checkpoint %s: %v", ck.path, err))
		}
	}
	return true
}

// Mark records completion of a unit and writes a full checkpoint at this
// quiescent point.
func (ck *Checkpointer) Mark(unit string) {
	if ck == nil {
		return
	}
	ck.step++
	ck.write(-1)
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
	if ck.sim == nil {
		return errors.New("no simulator attached")
	}
	if err := ck.sim.restoreEngineCkpt(ck.engineWords); err != nil {
		return err
	}
	ck.lastMid = int64(ck.sim.resumeRound)
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

// write assembles and atomically writes a checkpoint. executed >= 0 marks a
// mid-Run snapshot at that executed-round count; -1 is a quiescent one.
// Write failures latch into Err rather than aborting the build: a full disk
// should not kill a multi-hour computation that can still finish.
func (ck *Checkpointer) write(executed int) {
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
	if executed >= 0 {
		c.Round += int64(executed)
	}
	ck.buf = ck.sim.appendEngineCkpt(ck.buf[:0], executed)
	c.AddSection(EngineSection, ck.buf)
	for _, p := range ck.providers {
		c.AddSection(p.CkptSection(), p.AppendCkpt(nil))
	}
	if err := trace.WriteCheckpointFile(ck.path, c); err != nil && ck.err == nil {
		ck.err = err
	}
}

// maybeWriteMid is the engine's per-round hook: write a mid-Run snapshot
// when the cadence elapses. Called from Run's serial point only.
func (ck *Checkpointer) maybeWriteMid(executed int) {
	if ck == nil || !ck.midRun || ck.every <= 0 {
		return
	}
	if int64(executed)-ck.lastMid < ck.every {
		return
	}
	ck.lastMid = int64(executed)
	ck.write(executed)
}

// appendEngineCkpt serialises the simulator's engine section: global
// counters, per-vertex meters, fault tallies and per-edge fault cursors,
// plus — for mid-Run snapshots (executed >= 0) — the active list, pending
// inboxes, every backlogged edge queue and the pending timers. The layout is
// canonical (sorted active list, ascending dirty destinations, ascending
// edge order within each, timers by (round, vertex)), so the bytes are
// identical at every shard count.
func (s *Simulator) appendEngineCkpt(dst []uint64, executed int) []uint64 {
	s.ensureTopology()
	var flags uint64
	if executed >= 0 {
		flags |= engineFlagMid
	}
	dst = append(dst, engineCkptVersion, flags,
		uint64(int64(s.topoN)), uint64(int64(len(s.outTo))), uint64(int64(s.capacity)),
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
	if executed < 0 {
		return dst
	}

	dst = append(dst, uint64(int64(executed)), uint64(int64(len(s.actList))))
	for _, v := range s.actList {
		dst = append(dst, uint64(int64(v)))
	}
	for _, v32 := range s.actList {
		v := int(v32)
		in := s.inbox[v]
		dst = append(dst, uint64(int64(len(in))), uint64(int64(s.inboxMax[v])))
		for i := range in {
			dst = appendMsgCkpt(dst, &in[i])
		}
	}
	var dirty []int32
	for sh := range s.shardCur {
		dirty = append(dirty, s.shardCur[sh]...)
	}
	slices.Sort(dirty)
	dst = append(dst, uint64(int64(len(dirty))))
	for _, v32 := range dirty {
		v := int(v32)
		base := int(s.inStart[v])
		cnt := int(s.dirtyCnt[v])
		region := append([]int32(nil), s.dirtyIn[base:base+cnt]...)
		slices.Sort(region)
		dst = append(dst, uint64(int64(v)), uint64(int64(cnt)))
		for _, p := range region {
			e := s.inEdges[p]
			q := &s.queues[e]
			live := q.msgs[q.head:]
			dst = append(dst, uint64(int64(e)), uint64(int64(q.sent)), uint64(int64(len(live))))
			for i := range live {
				dst = appendMsgCkpt(dst, &live[i])
			}
		}
	}
	timers := slices.Clone(s.timers)
	slices.SortFunc(timers, func(a, b timer) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.v, b.v))
	})
	dst = append(dst, uint64(int64(len(timers))))
	for _, t := range timers {
		dst = append(dst, uint64(int64(t.round)), uint64(int64(t.v)))
	}
	return dst
}

func appendMsgCkpt(dst []uint64, m *Message) []uint64 {
	dst = append(dst, uint64(int64(m.From)), uint64(m.Payload.Kind),
		m.Payload.W0, m.Payload.W1, m.Payload.W2, m.Payload.W3,
		uint64(int64(m.Words)), uint64(int64(len(m.Payload.Ext))))
	return append(dst, m.Payload.Ext...)
}

func (s *Simulator) readMsgCkpt(r *trace.WordReader) Message {
	m := Message{From: r.Int()}
	m.Payload.Kind = PayloadKind(r.Word())
	m.Payload.W0, m.Payload.W1 = r.Word(), r.Word()
	m.Payload.W2, m.Payload.W3 = r.Word(), r.Word()
	m.Words = r.Int()
	if n := r.Int(); n > 0 {
		m.Payload.Ext = s.arena.clone(r.Take(n))
	}
	return m
}

// restoreEngineCkpt applies an engine section to this simulator. Counters,
// meters and fault state overwrite the current values; a mid-Run section
// additionally rebuilds the active list, inboxes and edge queues and arms
// the next Run call to continue at the recorded round.
func (s *Simulator) restoreEngineCkpt(words []uint64) error {
	s.ensureTopology()
	s.ensureFaults()
	r := trace.NewWordReader(words)
	version := r.Word()
	if version < 1 || version > engineCkptVersion {
		return fmt.Errorf("congest: engine section version %d, want 1..%d", version, engineCkptVersion)
	}
	flags := r.Word()
	if n := r.Int(); n != s.topoN {
		return fmt.Errorf("congest: engine section n=%d, simulator n=%d", n, s.topoN)
	}
	if ne := r.Int(); ne != len(s.outTo) {
		return fmt.Errorf("congest: engine section has %d directed edges, simulator %d", ne, len(s.outTo))
	}
	if c := r.Int(); c != s.capacity {
		return fmt.Errorf("congest: engine section capacity %d, simulator %d", c, s.capacity)
	}
	s.rounds = int64(r.Word())
	s.messages = int64(r.Word())
	s.words = int64(r.Word())
	for i := range s.meters {
		m := &s.meters[i]
		m.current = int64(r.Word())
		m.peak = int64(r.Word())
		m.window = int64(r.Word())
	}
	s.faultCtr.Dropped = int64(r.Word())
	s.faultCtr.Retried = int64(r.Word())
	s.faultCtr.Lost = int64(r.Word())
	s.faultCtr.Duplicated = int64(r.Word())
	s.faultCtr.DelayRounds = int64(r.Word())
	s.faultCtr.Discarded = int64(r.Word())
	s.faultCtr.RetryWords = int64(r.Word())
	if s.faultQ != nil {
		clear(s.faultQ)
	}
	fqCount := int(r.Word())
	for i := 0; i < fqCount; i++ {
		e := r.Int()
		seq := r.Word()
		attempt, hold, rolled := r.Int(), r.Int(), r.Bool()
		if s.faultQ == nil {
			return errors.New("congest: checkpoint carries fault state but the simulator has no fault plan")
		}
		if e < 0 || e >= len(s.faultQ) {
			return fmt.Errorf("congest: checkpoint fault state for edge %d out of range", e)
		}
		s.faultQ[e] = edgeFaultState{seq: seq, attempt: int32(attempt), hold: int32(hold), rolled: rolled}
	}
	if flags&engineFlagMid == 0 {
		return r.Done()
	}

	executed := r.Int()
	if executed < 0 {
		return fmt.Errorf("congest: checkpoint executed-round count %d", executed)
	}
	alen := r.Int()
	s.actList = s.actList[:0]
	for i := 0; i < alen; i++ {
		v := r.Int()
		if v < 0 || v >= s.topoN {
			return fmt.Errorf("congest: checkpoint active vertex %d out of range", v)
		}
		s.actList = append(s.actList, int32(v))
	}
	for _, v32 := range s.actList {
		v := int(v32)
		cnt := r.Int()
		s.inboxMax[v] = int32(r.Int())
		in := s.inbox[v][:0]
		for i := 0; i < cnt; i++ {
			in = append(in, s.readMsgCkpt(r))
		}
		s.inbox[v] = in
	}
	for sh := range s.shardCur {
		s.shardCur[sh] = s.shardCur[sh][:0]
	}
	nd := r.Int()
	for i := 0; i < nd; i++ {
		v := r.Int()
		cnt := r.Int()
		if v < 0 || v >= s.topoN || cnt < 0 || int(s.inStart[v])+cnt > int(s.inStart[v+1]) {
			return fmt.Errorf("congest: checkpoint dirty destination %d with %d edges out of range", v, cnt)
		}
		base := int(s.inStart[v])
		for j := 0; j < cnt; j++ {
			e := r.Int()
			sent := r.Int()
			k := r.Int()
			if e < 0 || e >= len(s.outTo) || int(s.outTo[e]) != v {
				return fmt.Errorf("congest: checkpoint queue on edge %d is not an in-edge of %d", e, v)
			}
			q := &s.queues[e]
			q.msgs = q.msgs[:0]
			q.head, q.sent = 0, int32(sent)
			for x := 0; x < k; x++ {
				q.msgs = append(q.msgs, s.readMsgCkpt(r))
			}
			s.dirtyIn[base+j] = s.inPos[e]
		}
		s.dirtyCnt[v] = int32(cnt)
		sh := v / s.shardBlock
		s.shardCur[sh] = append(s.shardCur[sh], int32(v))
	}
	s.timers = s.timers[:0]
	if version >= 2 {
		nt := r.Int()
		for i := 0; i < nt; i++ {
			round, v := r.Int(), r.Int()
			if v < 0 || v >= s.topoN || round <= executed {
				return fmt.Errorf("congest: checkpoint timer (round %d, vertex %d) out of range", round, v)
			}
			s.pushTimer(round, int32(v))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	s.resumeRound = executed
	s.resumePending = true
	return nil
}

// ResumePending reports whether a mid-Run checkpoint restore is armed: the
// next Run call will continue the interrupted execution (ignoring its
// initial active set), and handler packages should skip their own workspace
// reset (their state was restored through their CkptProvider).
func (s *Simulator) ResumePending() bool { return s.resumePending }
