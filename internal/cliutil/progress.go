package cliutil

import (
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"lowmemroute/internal/obs"
)

// StartProgress launches a reporter goroutine that prints one line to w
// every interval: current construction phase, simulated rounds and
// delivered messages with their rates since the previous line, process
// heap size with its high-water mark, and a phase-based ETA. It reads only
// the registry and runtime/metrics (which, unlike runtime.ReadMemStats,
// does not stop the world), so it observes a build without touching it.
// The returned stop func halts the reporter (idempotent, safe to call from
// the reporting goroutine's owner only).
func StartProgress(w io.Writer, reg *obs.Registry, interval time.Duration) (stop func()) {
	if reg == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		rounds := reg.Counter("congest_rounds_total")
		msgs := reg.Counter("congest_messages_total")
		start := time.Now()
		last := start
		var lastRounds, lastMsgs, heapHW int64
		heapLive := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				dt := now.Sub(last).Seconds()
				if dt <= 0 {
					dt = 1
				}
				r, m := rounds.Value(), msgs.Value()
				metrics.Read(heapLive)
				heap := int64(heapLive[0].Value.Uint64())
				if heap > heapHW {
					heapHW = heap
				}
				p := reg.Phase()
				phase := p.Name
				if phase == "" {
					phase = "-"
				}
				line := fmt.Sprintf("progress: phase=%s", phase)
				if p.Total > 0 {
					line += fmt.Sprintf(" (%d/%d)", p.Done, p.Total)
				}
				line += fmt.Sprintf(" rounds=%d (%.0f/s) msgs=%d (%.0f/s) heap=%s hw=%s",
					r, float64(r-lastRounds)/dt, m, float64(m-lastMsgs)/dt,
					formatBytes(heap), formatBytes(heapHW))
				if eta, ok := phaseETA(p, now.Sub(start)); ok {
					line += fmt.Sprintf(" eta~%s", eta.Round(time.Second))
				}
				fmt.Fprintln(w, line)
				last, lastRounds, lastMsgs = now, r, m
			}
		}
	}()
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		close(done)
		<-finished
	}
}

// phaseETA extrapolates the remaining wall time from the completed-phase
// fraction: crude (phases are not equal-cost), but it turns "is this
// n=10^6 build stuck?" into a number without instrumenting anything else.
func phaseETA(p obs.Phase, elapsed time.Duration) (time.Duration, bool) {
	if p.Total <= 0 || p.Done <= 0 || p.Done >= p.Total {
		return 0, false
	}
	perPhase := elapsed / time.Duration(p.Done)
	return perPhase * time.Duration(p.Total-p.Done), true
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
