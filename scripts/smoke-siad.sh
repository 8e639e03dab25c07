#!/bin/sh
# smoke-siad.sh — black-box smoke test of the siad daemon.
#
# Builds siad, starts it on a scratch port, waits for /healthz, asserts
# /metrics serves the Prometheus exposition with the advertised series,
# then sends SIGTERM and requires a clean (exit 0) shutdown within 5s.
# This is the only place the daemon's process-level behaviour — flag
# parsing, signal handling, graceful drain — is exercised for real; the
# Go tests drive the handlers in-process.
set -eu

ADDR="${SIAD_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/siad"
LOG="$(mktemp)"

fail() {
    echo "smoke-siad: $*" >&2
    echo "--- siad log ---" >&2
    cat "$LOG" >&2
    exit 1
}

echo "smoke-siad: building"
go build -o "$BIN" ./cmd/siad

"$BIN" -addr "$ADDR" 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait up to 5s for the daemon to come up.
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "daemon did not become healthy within 5s"
    kill -0 "$PID" 2>/dev/null || fail "daemon exited before becoming healthy"
    sleep 0.1
done
echo "smoke-siad: healthy"

# One real synthesis populates the cache and solver metrics. The
# explicit Content-Type matters — siad refuses non-JSON media types with
# 415 (curl -d would otherwise send application/x-www-form-urlencoded).
curl -fsS -X POST "$BASE/v1/synthesize" -H 'Content-Type: application/json' -d '{
    "predicate": "a - b < 20 AND b < 0",
    "cols": ["a"],
    "schema": [{"name": "a", "type": "int"}, {"name": "b", "type": "int"}]
}' >/dev/null || fail "synthesize request failed"

METRICS="$(curl -fsS "$BASE/metrics")" || fail "GET /metrics failed"
for name in \
    sia_http_requests_total \
    sia_cache_misses_total \
    sia_synthesis_duration_seconds_count \
    sia_smt_sat_queries_total; do
    echo "$METRICS" | grep -q "$name" || fail "/metrics missing $name"
done
echo "smoke-siad: metrics ok"

# Graceful shutdown: SIGTERM must yield exit 0 within 5s.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "daemon still running 5s after SIGTERM"
    sleep 0.1
done
trap - EXIT
# With process substitution unavailable in POSIX sh, recover the exit
# status via wait (works because siad is our direct child).
if wait "$PID"; then
    echo "smoke-siad: clean shutdown"
else
    fail "daemon exited non-zero after SIGTERM"
fi
