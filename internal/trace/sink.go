package trace

import "lowmemroute/internal/obs"

// Sink is the one instrumentation stream: the CONGEST engine pushes its
// round samples into it (congest.WithTrace) and the builders push their
// span boundaries (Begin). A nil Sink disables both; the engine's hot path
// pays one nil check per round.
type Sink interface {
	RoundSample(s RoundSample)
	Span(ev SpanEvent)
}

// SpanEvent is one span boundary on the stream. A begin event opens a span
// named Name nested under the innermost open one; an end event (End) closes
// the innermost open span and repeats its begin event's fields.
type SpanEvent struct {
	Name string
	End  bool
	// Done and Total place a top-level construction phase in its build:
	// Done phases finished before this one, out of Total. Total is 0 for
	// every other span.
	Done, Total int
}

// Open is a span begun on a Sink; End closes it. The zero Open, which Begin
// returns for a nil sink, is a no-op.
type Open struct {
	s  Sink
	ev SpanEvent
}

// Begin opens a span named name on s.
func Begin(s Sink, name string) Open { return BeginPhase(s, name, 0, 0) }

// BeginPhase opens a span for construction phase name, the one after done
// finished phases out of total: a registry sink publishes it as the build's
// progress.
func BeginPhase(s Sink, name string, done, total int) Open {
	if s == nil {
		return Open{}
	}
	ev := SpanEvent{Name: name, Done: done, Total: total}
	s.Span(ev)
	return Open{s: s, ev: ev}
}

// End closes the span. Call it once.
func (o Open) End() {
	if o.s == nil {
		return
	}
	o.ev.End = true
	o.s.Span(o.ev)
}

// tee is a Sink that forwards the stream to several sinks in order.
type tee []Sink

func (t tee) RoundSample(s RoundSample) {
	for _, k := range t {
		k.RoundSample(s)
	}
}

func (t tee) Span(ev SpanEvent) {
	for _, k := range t {
		k.Span(ev)
	}
}

// Tee joins sinks into one stream. Nil sinks, a nil *Recorder included,
// are dropped: Tee returns nil when none is left and the sink itself when
// one is.
func Tee(sinks ...Sink) Sink {
	var out tee
	for _, s := range sinks {
		if r, ok := s.(*Recorder); s == nil || (ok && r == nil) {
			continue
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// RecordsLevels reports whether s keeps a sample's levels: Backlog,
// MemMax and MemMean. Those cost the engine an O(n) meter scan and a
// backlog walk per sample, so it fills them in only for a sink that records
// them; a registry sink does not.
func RecordsLevels(s Sink) bool {
	switch s := s.(type) {
	case nil, registrySink:
		return false
	case tee:
		for _, k := range s {
			if RecordsLevels(k) {
				return true
			}
		}
		return false
	}
	return true
}

// registrySink folds the stream into a metrics registry.
type registrySink struct {
	reg                     *obs.Registry
	rounds, messages, words *obs.Counter
	active                  *obs.Gauge
}

// RegistrySink returns a Sink that publishes the stream into reg, or nil
// for a nil registry:
//
//   - congest_rounds_total, congest_messages_total, congest_words_total:
//     every sample's rounds, messages and words are added as deltas, so a
//     registry shared by several simulators reads the sum of their totals
//     and stays monotone;
//   - congest_active_vertices: the Active count of the last round or idle
//     sample;
//   - build_phase_info, build_phases_done, build_phases_total: the
//     construction phase of the last BeginPhase span event, done counting
//     the phase itself once it ends.
func RegistrySink(reg *obs.Registry) Sink {
	if reg == nil {
		return nil
	}
	reg.SetHelp("congest_rounds_total", "Simulated CONGEST rounds executed (including analytically charged primitives).")
	reg.SetHelp("congest_messages_total", "Messages delivered by the simulator.")
	reg.SetHelp("congest_words_total", "O(log n)-bit words delivered by the simulator.")
	reg.SetHelp("congest_active_vertices", "Vertices that executed in the last simulated round.")
	return registrySink{
		reg:      reg,
		rounds:   reg.Counter("congest_rounds_total"),
		messages: reg.Counter("congest_messages_total"),
		words:    reg.Counter("congest_words_total"),
		active:   reg.Gauge("congest_active_vertices"),
	}
}

func (m registrySink) RoundSample(s RoundSample) {
	m.rounds.Add(s.Rounds)
	m.messages.Add(s.Messages)
	m.words.Add(s.Words)
	if s.Kind == KindRound || s.Kind == KindIdle {
		m.active.Set(int64(s.Active))
	}
}

func (m registrySink) Span(ev SpanEvent) {
	if ev.Total == 0 {
		return
	}
	p := obs.Phase{Name: ev.Name, Done: ev.Done, Total: ev.Total}
	if ev.End {
		p.Done++
	}
	m.reg.SetPhase(p)
}
