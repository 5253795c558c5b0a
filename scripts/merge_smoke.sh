#!/bin/sh
# Cross-shard merge smoke test (ISSUE 10): the merged aggregate must be
# byte-identical however the fleet was sharded, parallelised, cached,
# or killed and resumed.
#
#   1. sequential fleet --merge-out is the reference aggregate;
#   2. the same fleet split into 3 shards, each run separately, the
#      shard aggregates combined with `isf merge` — byte-identical;
#   3. a 2-way split and a reversed merge order — byte-identical
#      (shard-count and merge-order invariance);
#   4. a multi-worker daemon run of the full fleet — byte-identical;
#   5. cold vs warm merged-aggregate cache — byte-identical, so the
#      content-addressed cache never changes the answer;
#   6. SIGKILL the fleet mid-run, resume on the journal — results AND
#      merged aggregate byte-identical to the uninterrupted reference;
#   7. the fleet over the socket of a daemon it overfills — results and
#      merged aggregate byte-identical.
#
# Usage: scripts/merge_smoke.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
. "$(dirname "$0")/kill_mid_run.sh"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

N=24
JOBS=$DIR/jobs

"$ISF" fleet -n $N --seed 17 --emit "$JOBS" > /dev/null

# 1. sequential reference: results + merged aggregate
"$ISF" fleet --file "$JOBS" --sequential --out "$DIR/results.seq" \
    --merge-out "$DIR/merged.seq" > /dev/null

# 2. three shards, run separately, merged with `isf merge`
awk -v dir="$DIR" '{ print > (dir "/shard3." (NR % 3)) }' "$JOBS"
for i in 0 1 2; do
  "$ISF" fleet --file "$DIR/shard3.$i" --sequential \
      --out "$DIR/shard3.$i.res" --merge-out "$DIR/shard3.$i.prof" > /dev/null
done
"$ISF" merge "$DIR"/shard3.0.prof "$DIR"/shard3.1.prof "$DIR"/shard3.2.prof \
    --out "$DIR/merged.shard3" > /dev/null
cmp -s "$DIR/merged.seq" "$DIR/merged.shard3" || {
    echo "FAIL: 3-shard merge differs from the sequential aggregate" >&2
    exit 1
}
echo "3-shard merge byte-identical to the sequential aggregate"

# 3. different shard count AND reversed merge order
awk -v dir="$DIR" '{ print > (dir "/shard2." (NR % 2)) }' "$JOBS"
for i in 0 1; do
  "$ISF" fleet --file "$DIR/shard2.$i" --sequential \
      --out "$DIR/shard2.$i.res" --merge-out "$DIR/shard2.$i.prof" > /dev/null
done
"$ISF" merge "$DIR"/shard2.1.prof "$DIR"/shard2.0.prof \
    --out "$DIR/merged.shard2rev" > /dev/null
cmp -s "$DIR/merged.seq" "$DIR/merged.shard2rev" || {
    echo "FAIL: 2-shard reversed-order merge differs" >&2
    exit 1
}
echo "shard count and merge order do not change the aggregate"

# 4. multi-worker daemon run of the full fleet
"$ISF" fleet --file "$JOBS" -j 3 --out "$DIR/results.par" \
    --merge-out "$DIR/merged.par" > /dev/null
cmp -s "$DIR/results.seq" "$DIR/results.par" || {
    echo "FAIL: multi-worker results differ from sequential" >&2
    exit 1
}
cmp -s "$DIR/merged.seq" "$DIR/merged.par" || {
    echo "FAIL: multi-worker merge differs from the sequential aggregate" >&2
    exit 1
}
echo "multi-worker merge byte-identical"

# 5. cold vs warm merged-aggregate cache
CACHE=$DIR/cache
"$ISF" merge "$DIR"/shard3.*.prof --cache "$CACHE" \
    --out "$DIR/merged.cold" > /dev/null
"$ISF" merge "$DIR"/shard3.*.prof --cache "$CACHE" \
    --out "$DIR/merged.warm" > /dev/null
cmp -s "$DIR/merged.cold" "$DIR/merged.warm" || {
    echo "FAIL: warm merged-cache output differs from cold" >&2
    exit 1
}
cmp -s "$DIR/merged.seq" "$DIR/merged.cold" || {
    echo "FAIL: cached merge differs from the sequential aggregate" >&2
    exit 1
}
echo "merged-aggregate cache: cold and warm byte-identical"

# 6. SIGKILL mid-fleet once N+1 records past the meta are journaled
#    (at most N of them submissions, so at least one job has run; one
#    worker leaves most of the fleet to kill), resume on the journal,
#    merge losslessly
JOURNAL=$DIR/journal
"$ISF" fleet --file "$JOBS" --journal "$JOURNAL" -j 1 \
    --out "$DIR/results.killed" --merge-out "$DIR/merged.killed" \
    > /dev/null 2>&1 &
kill_mid_run $! $((N + 1)) "fleet --journal" log_records "$JOURNAL"
"$ISF" fleet --file "$JOBS" --journal "$JOURNAL" \
    --out "$DIR/results.resumed" --merge-out "$DIR/merged.resumed" > /dev/null
cmp -s "$DIR/results.seq" "$DIR/results.resumed" || {
    echo "FAIL: resumed results differ from the sequential reference" >&2
    exit 1
}
cmp -s "$DIR/merged.seq" "$DIR/merged.resumed" || {
    echo "FAIL: resumed merge differs from the sequential aggregate" >&2
    exit 1
}
echo "kill + resume merges losslessly"

# 7. the fleet over the socket of a daemon that sheds most of each
#    window: the client renumbers results by entry, so both files equal
#    the sequential reference.  `timeout` bounds every process, so a
#    wedged client fails the leg instead of hanging CI.
SOCK=$DIR/serve.sock
timeout -s KILL 120 "$ISF" serve --socket "$SOCK" -j 2 --capacity 2 \
    > /dev/null 2>&1 &
SPID=$!
for i in $(seq 1 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK" >&2; exit 1; }
CODE=0
timeout 120 "$ISF" fleet --file "$JOBS" --socket "$SOCK" \
    --out "$DIR/results.socket" --merge-out "$DIR/merged.socket" \
    > /dev/null || CODE=$?
kill -TERM "$SPID"
wait "$SPID" || true
[ "$CODE" -eq 0 ] || { echo "FAIL: socket fleet exited $CODE" >&2; exit 1; }
cmp -s "$DIR/results.seq" "$DIR/results.socket" || {
    echo "FAIL: socket fleet results differ from the sequential reference" >&2
    exit 1
}
cmp -s "$DIR/merged.seq" "$DIR/merged.socket" || {
    echo "FAIL: socket fleet merge differs from the sequential aggregate" >&2
    exit 1
}
echo "socket fleet past capacity merges byte-identically"

echo "merge smoke OK"
