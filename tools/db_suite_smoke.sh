#!/bin/sh
# db-suite smoke test: build a small KB through an interactive session,
# then drive every `db` verb over it — stats/show, split into several
# blocks, verify (clean AND corrupted), a mapped load through the
# session, trim, and rm. Exercises the noun-verb surface end to end.
#
#   db_suite_smoke.sh /path/to/tara_cli
set -e

CLI="$1"
[ -x "$CLI" ] || { echo "usage: db_suite_smoke.sh /path/to/tara_cli"; exit 2; }

WORK="${TMPDIR:-/tmp}/tara_db_suite_$$"
rm -rf "$WORK"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

# Build a 4-window KB and save it (TARAKB3).
printf 'gen quest 3000 120\nwindows 4\nbuild 0.01 0.1\nsavedir %s/kb\nquit\n' \
  "$WORK" | "$CLI" > /dev/null

"$CLI" db stats --kb "$WORK/kb" | grep -q "TARAKB3" \
  || { echo "expected a TARAKB3 stats header"; exit 1; }
[ "$("$CLI" db show --kb "$WORK/kb" | wc -l)" -eq 5 ] \
  || { echo "db show should print 4 windows + header"; exit 1; }
"$CLI" db verify --kb "$WORK/kb" | grep -q "all hashes match" \
  || { echo "verify of the fresh save failed"; exit 1; }

# Rebalance into blocks (tiny target size so several blocks appear).
"$CLI" db split --kb "$WORK/kb" --block-bytes 4096 > /dev/null
BLOCKS=$("$CLI" db stats --kb "$WORK/kb" \
  | sed -n 's/^windows: *4 in \([0-9][0-9]*\) blocks$/\1/p')
[ -n "$BLOCKS" ] && [ "$BLOCKS" -gt 1 ] \
  || { echo "split did not yield more than one block: '$BLOCKS'"; exit 1; }
"$CLI" db verify --kb "$WORK/kb" | grep -q "all hashes match" \
  || { echo "verify after split failed"; exit 1; }

# The mapped session load answers queries over the block form.
printf 'loaddir %s/kb mmap\nmine 2 0.02 0.4\nregion 2 0.02 0.4\nquit\n' \
  "$WORK" | "$CLI" | grep -q "stable region" \
  || { echo "mapped session load failed"; exit 1; }

# Corrupt one payload byte inside a block: verify must catch it, with a
# nonzero exit.
BLOCK=$(ls "$WORK/kb"/block-*.blk | head -1)
SIZE=$(wc -c < "$BLOCK")
dd if=/dev/zero bs=1 count=1 seek=$((SIZE / 2)) conv=notrunc of="$BLOCK" \
  2> /dev/null
if "$CLI" db verify --kb "$WORK/kb" 2> "$WORK/verify.err"; then
  # The flipped byte may have been a zero already — flip it to 0xFF.
  printf '\377' | dd bs=1 count=1 seek=$((SIZE / 2)) conv=notrunc \
    of="$BLOCK" 2> /dev/null
  "$CLI" db verify --kb "$WORK/kb" 2> "$WORK/verify.err" \
    && { echo "verify missed an injected corruption"; exit 1; }
fi
grep -q "." "$WORK/verify.err" || { echo "verify printed no error"; exit 1; }

# Rebuild a clean copy for trim/rm.
rm -rf "$WORK/kb"
printf 'gen quest 3000 120\nwindows 4\nbuild 0.01 0.1\nsavedir %s/kb\nquit\n' \
  "$WORK" | "$CLI" > /dev/null
"$CLI" db split --kb "$WORK/kb" --block-bytes 4096 > /dev/null
"$CLI" db trim --kb "$WORK/kb" --windows 2 > /dev/null
[ "$("$CLI" db show --kb "$WORK/kb" | wc -l)" -eq 3 ] \
  || { echo "trim did not leave 2 windows"; exit 1; }
"$CLI" db verify --kb "$WORK/kb" > /dev/null \
  || { echo "trimmed KB fails verify"; exit 1; }
"$CLI" db rm --kb "$WORK/kb" > /dev/null
[ -z "$(ls "$WORK/kb" 2>/dev/null)" ] \
  || { echo "rm left manifest-named files behind"; exit 1; }

echo "db suite smoke OK"
