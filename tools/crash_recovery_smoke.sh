#!/bin/sh
# Crash-recovery smoke test: kill a live-appending `tara_cli serve`
# running with a write-ahead log at an exact step of its fifth append
# (TARA_CRASH_AT counts durability steps, three per append:
# wal.record_begin, wal.record_written, wal.record_synced), recover with
# `tara_cli wal recover`, and require the recovered knowledge-base
# directory to be byte-identical to an uncrashed reference holding the
# same windows. Then restart the server on the recovered state and shut
# it down cleanly. Both outcomes run: killed before the fifth record is
# written (7 windows recover) and right after it is synced (8 windows).
#
#   crash_recovery_smoke.sh /path/to/tara_cli
set -e

CLI="$1"
[ -x "$CLI" ] || { echo "usage: crash_recovery_smoke.sh /path/to/tara_cli"; exit 2; }

WORK=$(mktemp -d)
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# The windows to live-append (timestamps non-decreasing per file).
printf '100 1 2 3\n101 2 3 4\n102 1 3 5\n103 2 4 5\n' > "$WORK/w1.txt"
printf '110 1 2 4\n111 3 4 5\n112 1 2 5\n' > "$WORK/w2.txt"
printf '120 2 3 5\n121 1 4 5\n122 2 3 4\n' > "$WORK/w3.txt"
printf '130 1 2 3\n131 1 3 4\n' > "$WORK/w4.txt"
i=0
while [ $i -lt 400 ]; do
  echo "14$((i / 10)) $((i % 7 + 1)) $((i % 5 + 8)) $((i % 3 + 14))"
  i=$((i + 1))
done > "$WORK/w5.txt"

# Seed checkpoint the server loads, and uncrashed references at 7 and 8
# windows (the CLI and the serve bootstrap build the same deterministic
# Quest base from these parameters). Block layout follows checkpoint
# cadence, so each reference is built the way recovery builds the
# server's directory: the 3-window seed save, then one append of every
# ingested window into the same directory.
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\nsavedir %s\nquit\n' \
  "$WORK/seed" | "$CLI" > /dev/null
cp -r "$WORK/seed" "$WORK/ref7"
cp -r "$WORK/seed" "$WORK/ref8"
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\ningest %s\ningest %s\ningest %s\ningest %s\nsavedir %s\nquit\n' \
  "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" "$WORK/w4.txt" \
  "$WORK/ref7" | "$CLI" > /dev/null
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\ningest %s\ningest %s\ningest %s\ningest %s\ningest %s\nsavedir %s\nquit\n' \
  "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" "$WORK/w4.txt" \
  "$WORK/w5.txt" "$WORK/ref8" | "$CLI" > /dev/null

start_server() {
  TARA_CRASH_AT="${CRASH_AT:-}" "$CLI" serve 127.0.0.1:0 \
    --loaddir "$WORK/kb" --wal "$WORK/wal" \
    --port-file "$WORK/port" </dev/null 2>"$WORK/serve.log" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
    sleep 0.1
  done
  [ -s "$WORK/port" ] || { echo "server never bound a port"; exit 1; }
  PORT=$(cat "$WORK/port")
}

# crash_and_recover CRASH_AT WINDOWS: serve the seed with the server armed
# to die at durability step CRASH_AT, ack four appends, let the fifth hit
# the armed step, recover, and require the WINDOWS-window reference.
crash_and_recover() {
  rm -rf "$WORK/kb" "$WORK/wal" "$WORK/port"
  cp -r "$WORK/seed" "$WORK/kb"
  CRASH_AT=$1 start_server

  # Four acked appends: once each `ingested` line prints, the WAL record
  # behind it is fdatasync'd and must survive any crash.
  printf 'ingest %s\ningest %s\ningest %s\ningest %s\nquit\n' \
    "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" "$WORK/w4.txt" \
    | "$CLI" query --remote "127.0.0.1:$PORT" --deadline 10000 \
    > "$WORK/ingest.log"
  ACKED=$(grep -c '^ingested' "$WORK/ingest.log" || true)
  [ "$ACKED" -eq 4 ] || { echo "expected 4 acks, got $ACKED"; cat "$WORK/ingest.log"; exit 1; }

  # The fifth append reaches the armed step; the server dies before it
  # acks (the client sees the connection drop).
  printf 'ingest %s\nquit\n' "$WORK/w5.txt" \
    | "$CLI" query --remote "127.0.0.1:$PORT" > /dev/null 2>&1 || true
  STATUS=0
  wait "$SERVER_PID" 2>/dev/null || STATUS=$?
  SERVER_PID=""
  [ "$STATUS" -eq 137 ] || { echo "server was not killed at step $1 (status $STATUS)"; cat "$WORK/serve.log"; exit 1; }
  rm -f "$WORK/port"

  "$CLI" wal recover --kb "$WORK/kb" --wal "$WORK/wal" 2> "$WORK/recover.log"
  cat "$WORK/recover.log"
  COUNT=$(sed -n 's/^recovered \([0-9][0-9]*\) windows.*/\1/p' "$WORK/recover.log")
  [ "$COUNT" = "$2" ] || { echo "killed at step $1: recovered '$COUNT' windows, expected $2"; exit 1; }

  # The acceptance bar: recovered bytes == the uncrashed reference at the
  # recovered window count.
  diff -r "$WORK/kb" "$WORK/ref$COUNT" || { echo "recovered state diverges from the reference"; exit 1; }
  echo "recovered state matches the $COUNT-window reference byte-for-byte"

  # The recovered checkpoint serves again (and the truncated log re-attaches).
  CRASH_AT="" start_server
  printf 'info\nquit\n' | "$CLI" query --remote "127.0.0.1:$PORT" \
    > "$WORK/info.log"
  grep "remote knowledge base: $COUNT windows" "$WORK/info.log" > /dev/null \
    || { echo "restarted server does not serve the recovered state"; cat "$WORK/info.log"; exit 1; }

  kill -TERM "$SERVER_PID"
  STATUS=0
  wait "$SERVER_PID" || STATUS=$?
  SERVER_PID=""
  [ "$STATUS" -eq 0 ] || { echo "server exit status $STATUS"; exit 1; }
}

# Steps 0-11 are the four acked appends. Step 12 is the fifth append's
# wal.record_begin: nothing of it reached the log, so 7 windows recover.
crash_and_recover 12 7
# Step 14 is its wal.record_synced: the record is durable though never
# acked, so recovery surfaces it and 8 windows recover.
crash_and_recover 14 8
echo "crash recovery smoke OK"
