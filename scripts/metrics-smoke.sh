#!/usr/bin/env bash
# Metrics smoke test (make metrics-smoke): run a small routebench sweep with
# the diagnostics server on an ephemeral port, scrape /metrics while
# -pprof-hold keeps the process alive, and validate the exposition with
# cmd/promcheck — the format must parse as Prometheus text v0.0.4 and every
# family the registry exports must be present: the engine counters and
# active-vertex gauge and the build-phase gauges (all fed by the trace
# stream's registry sink), and the lookup-latency histogram.
set -euo pipefail

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$bin/routebench" ./cmd/routebench
go build -o "$bin/promcheck" ./cmd/promcheck

errlog="$bin/stderr.log"
"$bin/routebench" -n 64 -k 2 -pairs 50 -schemes paper \
    -pprof 127.0.0.1:0 -pprof-hold 60s >"$bin/stdout.log" 2>"$errlog" &
pid=$!

# Wait for the hold marker: the sweep is finished, so every family —
# including the lookup-latency histogram — is populated.
for _ in $(seq 1 600); do
    grep -q '^pprof: holding' "$errlog" 2>/dev/null && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "metrics-smoke: routebench exited before holding" >&2
        cat "$errlog" >&2
        exit 1
    fi
    sleep 0.1
done
if ! grep -q '^pprof: holding' "$errlog"; then
    echo "metrics-smoke: timed out waiting for the sweep to finish" >&2
    cat "$errlog" >&2
    exit 1
fi

addr=$(sed -n 's|^pprof: serving http://\([^/ ]*\)/.*|\1|p' "$errlog" | head -n 1)
if [ -z "$addr" ]; then
    echo "metrics-smoke: no bound address in routebench stderr" >&2
    cat "$errlog" >&2
    exit 1
fi

curl -fsS "http://$addr/metrics" | "$bin/promcheck" \
    -require congest_rounds_total \
    -require congest_messages_total \
    -require congest_words_total \
    -require congest_active_vertices \
    -require build_phase_info \
    -require build_phases_done \
    -require build_phases_total \
    -require route_lookup_seconds

echo "metrics-smoke: ok (scraped http://$addr/metrics)"
