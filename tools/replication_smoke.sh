#!/bin/sh
# Replication smoke test: a WAL-backed primary `tara_cli serve` streams
# to two `--replicate-from` hot standbys. Windows are appended live on
# the primary; both replicas must converge and answer the same query
# script byte-for-byte. One replica is then killed with -9 and
# restarted; it must catch back up from the durable stream and match
# again. Appends against a replica must be refused with the typed
# read_only_replica error.
#
#   replication_smoke.sh /path/to/tara_cli
set -e

CLI="$1"
[ -x "$CLI" ] || { echo "usage: replication_smoke.sh /path/to/tara_cli"; exit 2; }

WORK=$(mktemp -d)
cleanup() {
  for pid in "$PRIMARY_PID" "$REPLICA_A_PID" "$REPLICA_B_PID"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# Seed checkpoint the primary loads, plus the live windows to append.
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\nsavedir %s\nquit\n' \
  "$WORK/kb" | "$CLI" > /dev/null
printf '100 1 2 3\n101 2 3 4\n102 1 3 5\n103 2 4 5\n' > "$WORK/w1.txt"
printf '110 1 2 4\n111 3 4 5\n112 1 2 5\n' > "$WORK/w2.txt"
printf '120 2 3 5\n121 1 4 5\n122 2 3 4\n' > "$WORK/w3.txt"
printf '130 1 2 3\n131 1 3 4\n' > "$WORK/w4.txt"

# The identical query script every node answers; outputs must match.
# `info` also prints each node's generation, which counts publications,
# not windows (a primary's eager open publishes its checkpoint once, a
# replica publishes once per streamed record), so ask_oracle drops it
# and compares the knowledge base itself: windows, rules and answers.
printf 'mine 2 0.02 0.4
region 1 0.02 0.4
traj 2 0.02 0.4
rollupmine 0.02 0.4
info
quit
' > "$WORK/oracle.q"

ask_oracle() {
  # ask_oracle PORT OUTFILE
  "$CLI" query --remote "127.0.0.1:$1" --deadline 10000 \
    < "$WORK/oracle.q" > "$2.raw"
  sed 's/, generation [0-9][0-9]*$//' "$2.raw" > "$2"
}

wait_port() {
  # wait_port PID PORTFILE LOG
  for _ in $(seq 1 100); do
    [ -s "$2" ] && break
    kill -0 "$1" 2>/dev/null || { cat "$3"; exit 1; }
    sleep 0.1
  done
  [ -s "$2" ] || { echo "server never bound a port ($3)"; exit 1; }
}

wait_windows() {
  # wait_windows PORT COUNT: poll `replica status` until `windows COUNT`.
  for _ in $(seq 1 200); do
    if "$CLI" replica status "127.0.0.1:$1" 2>/dev/null \
        | grep -q "^windows  *$2\$"; then
      return 0
    fi
    sleep 0.1
  done
  echo "replica on port $1 never reached $2 windows"
  "$CLI" replica status "127.0.0.1:$1" || true
  exit 1
}

"$CLI" serve 127.0.0.1:0 --loaddir "$WORK/kb" --wal "$WORK/wal" \
  --port-file "$WORK/pport" </dev/null 2>"$WORK/primary.log" &
PRIMARY_PID=$!
wait_port "$PRIMARY_PID" "$WORK/pport" "$WORK/primary.log"
PPORT=$(cat "$WORK/pport")

start_replica() {
  # start_replica NAME -> sets REPLICA_PID and REPLICA_PORT
  "$CLI" serve 127.0.0.1:0 --replicate-from "127.0.0.1:$PPORT" \
    --port-file "$WORK/$1.port" </dev/null 2>"$WORK/$1.log" &
  REPLICA_PID=$!
  wait_port "$REPLICA_PID" "$WORK/$1.port" "$WORK/$1.log"
  REPLICA_PORT=$(cat "$WORK/$1.port")
}

start_replica a
REPLICA_A_PID=$REPLICA_PID; APORT=$REPLICA_PORT
start_replica b
REPLICA_B_PID=$REPLICA_PID; BPORT=$REPLICA_PORT

wait_windows "$APORT" 3
wait_windows "$BPORT" 3

# Live appends on the primary; each ack means the WAL record is durable
# and therefore eligible for the replication stream.
printf 'ingest %s\ningest %s\ningest %s\nquit\n' \
  "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" \
  | "$CLI" query --remote "127.0.0.1:$PPORT" --deadline 10000 \
  > "$WORK/ingest.log"
ACKED=$(grep -c '^ingested' "$WORK/ingest.log" || true)
[ "$ACKED" -eq 3 ] || { echo "expected 3 acks, got $ACKED"; cat "$WORK/ingest.log"; exit 1; }

wait_windows "$APORT" 6
wait_windows "$BPORT" 6

# Divergence oracle: the same query script against the primary and both
# replicas must produce identical bytes.
ask_oracle "$PPORT" "$WORK/out.primary"
ask_oracle "$APORT" "$WORK/out.a"
ask_oracle "$BPORT" "$WORK/out.b"
diff "$WORK/out.primary" "$WORK/out.a" \
  || { echo "replica A diverges from the primary"; exit 1; }
diff "$WORK/out.primary" "$WORK/out.b" \
  || { echo "replica B diverges from the primary"; exit 1; }
echo "both replicas answer the oracle script identically at 6 windows"

# Appends against a replica must be refused with the typed code, and
# must not change its window count.
printf 'ingest %s\nquit\n' "$WORK/w4.txt" \
  | "$CLI" query --remote "127.0.0.1:$APORT" --deadline 10000 \
  > "$WORK/readonly.log" || true
grep -q 'read_only_replica' "$WORK/readonly.log" \
  || { echo "replica accepted (or mis-typed) a write"; cat "$WORK/readonly.log"; exit 1; }
wait_windows "$APORT" 6

# kill -9 replica B mid-life, append another window while it is down,
# then restart it: it must resubscribe and converge.
kill -9 "$REPLICA_B_PID"
wait "$REPLICA_B_PID" 2>/dev/null || true
REPLICA_B_PID=""
rm -f "$WORK/b.port"

printf 'ingest %s\nquit\n' "$WORK/w4.txt" \
  | "$CLI" query --remote "127.0.0.1:$PPORT" --deadline 10000 \
  | grep -q '^ingested' || { echo "append while replica down failed"; exit 1; }
wait_windows "$APORT" 7

start_replica b
REPLICA_B_PID=$REPLICA_PID; BPORT=$REPLICA_PORT
wait_windows "$BPORT" 7

ask_oracle "$PPORT" "$WORK/out.primary7"
ask_oracle "$BPORT" "$WORK/out.b7"
diff "$WORK/out.primary7" "$WORK/out.b7" \
  || { echo "restarted replica B diverges from the primary"; exit 1; }
echo "restarted replica matches the primary at 7 windows"

# Clean shutdowns all around.
for pid in "$REPLICA_A_PID" "$REPLICA_B_PID" "$PRIMARY_PID"; do
  kill -TERM "$pid"
  wait "$pid" || { echo "exit status $? from pid $pid"; exit 1; }
done
REPLICA_A_PID=""; REPLICA_B_PID=""; PRIMARY_PID=""
echo "replication smoke ok"
