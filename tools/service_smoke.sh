#!/usr/bin/env bash
# Byte-identity smoke for the resident service (docs/SERVICE.md): the same
# traces run through `fleet` (batch, one-shot) and through `serve` + `stream`
# (resident daemon, loopback SNTRS1) must print identical report bytes, and
# the daemon must close every connection its tenants end: its open fd count
# after the stream is back to the count it had before any tenant connected.
#
#   tools/service_smoke.sh <path-to-sentinel_cli> [workdir]
#
# Exits nonzero when the server never comes up, keeps ended connections
# open, or the reports diverge.
set -euo pipefail

CLI=${1:?usage: service_smoke.sh <path-to-sentinel_cli> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

"$CLI" simulate "$WORK/north.csv" --days 2 --seed 11
"$CLI" simulate "$WORK/south.csv" --days 2 --seed 12 --scenario stuck-at
"$CLI" fleet "$WORK/north.csv" "$WORK/south.csv" > "$WORK/fleet.txt"

rm -f "$WORK/port.txt"
"$CLI" serve --bootstrap "$WORK/north.csv" --port 0 --port-file "$WORK/port.txt" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  [ -s "$WORK/port.txt" ] && break
  sleep 0.1
done
[ -s "$WORK/port.txt" ] || { echo "service smoke: server never published its port" >&2; exit 1; }
PORT=$(cat "$WORK/port.txt")
fd_count() { ls "/proc/$SERVER_PID/fd" | wc -l; }
FDS_IDLE=$(fd_count)

"$CLI" stream "$WORK/north.csv" "$WORK/south.csv" --port "$PORT" \
  --report --final > "$WORK/stream.txt"

# Three connections ended (two tenants and the report); wait up to ~5 s for
# the daemon to close them.
FDS_AFTER=$(fd_count)
for _ in $(seq 1 50); do
  [ "$FDS_AFTER" -le "$FDS_IDLE" ] && break
  sleep 0.1
  FDS_AFTER=$(fd_count)
done
if [ "$FDS_AFTER" -gt "$FDS_IDLE" ]; then
  echo "service smoke: daemon holds $FDS_AFTER fds after the stream, $FDS_IDLE before" >&2
  exit 1
fi

"$CLI" stream --port "$PORT" --shutdown
wait "$SERVER_PID"
trap - EXIT

diff -u "$WORK/fleet.txt" "$WORK/stream.txt"
echo "service smoke: reports byte-identical ($(wc -c < "$WORK/fleet.txt") bytes)," \
  "fds back to $FDS_IDLE"
