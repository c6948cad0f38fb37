#!/usr/bin/env bash
# Byte-identity smoke for the resident service (docs/SERVICE.md): the same
# traces run through `fleet` (batch, one-shot) and through `serve` + `stream`
# (resident daemon, loopback SNTRS1) must print identical report bytes and
# export the same per-region metrics, and the daemon must close every
# connection its tenants end: its open fd count after the stream is back to
# the count it had before any tenant connected.
#
#   tools/service_smoke.sh <path-to-sentinel_cli> [workdir]
#
# Exits nonzero when the server never comes up, keeps ended connections
# open, the reports diverge, or a region's fleet.region.<name>.* keys or
# timing-independent counters differ between the two metrics documents.
set -euo pipefail

CLI=${1:?usage: service_smoke.sh <path-to-sentinel_cli> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

"$CLI" simulate "$WORK/north.csv" --days 2 --seed 11
"$CLI" simulate "$WORK/south.csv" --days 2 --seed 12 --scenario stuck-at
"$CLI" fleet "$WORK/north.csv" "$WORK/south.csv" \
  --metrics-json "$WORK/fleet_metrics.json" > "$WORK/fleet.txt"

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
  --report --final --metrics-json "$WORK/stream_metrics.json" > "$WORK/stream.txt"

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

# Both documents must list each region under the same fleet.region.<name>.*
# keys, with equal values for every counter that does not depend on timing
# (backpressure waits and block time do).
python3 - "$WORK/fleet_metrics.json" "$WORK/stream_metrics.json" <<'EOF'
import json, sys

PREFIX = "fleet.region."
COUNTERS = ("records_ingested", "records_dropped", "windows_processed", "windows_skipped",
            "state_spawns", "state_merges", "raw_alarms", "filtered_alarms", "track_opens",
            "track_closes", "hmm_updates", "late_records", "clamped_records")

def regions(path):
    counters = json.load(open(path))["counters"]
    names = [k[len(PREFIX):-len(".health")] for k in counters
             if k.startswith(PREFIX) and k.endswith(".health")]
    return {name: {k[len(PREFIX + name) + 1:]: v for k, v in counters.items()
                   if k.startswith(PREFIX + name + ".")}
            for name in names}

fleet, served = regions(sys.argv[1]), regions(sys.argv[2])
failures = [] if fleet else ["no fleet.region.<name>.health key in the fleet document"]
if sorted(fleet) != sorted(served):
    failures.append(f"regions differ: fleet {sorted(fleet)}, served {sorted(served)}")
for name in sorted(set(fleet) & set(served)):
    if sorted(fleet[name]) != sorted(served[name]):
        failures.append(f"{name}: keys differ: fleet {sorted(fleet[name])}, "
                        f"served {sorted(served[name])}")
    for field in COUNTERS:
        if field not in fleet[name] or fleet[name][field] != served[name].get(field):
            failures.append(f"{name}.{field}: fleet {fleet[name].get(field)}, "
                            f"served {served[name].get(field)}")
for f in failures:
    print("service smoke: metrics: " + f, file=sys.stderr)
sys.exit(1 if failures else 0)
EOF

echo "service smoke: reports byte-identical ($(wc -c < "$WORK/fleet.txt") bytes)," \
  "per-region metrics equal, fds back to $FDS_IDLE"
