#!/bin/sh
# Serve-mode smoke test (ISSUE 8): for every engine x recording
# combination, emit a deterministic fleet, run it sequentially as the
# byte-identity reference, then drain it through a multi-worker daemon
# with a journal and a shared cache — SIGKILL the daemon mid-fleet,
# restart it on the same journal, and require zero lost jobs and
# results byte-identical to the reference.  Also exercises SIGTERM
# and a narrower resume of the job-file drain, a journal that cannot
# be written, the socket front-end, graceful SIGTERM shutdown, and two
# daemons sharing one --cache directory.
#
# Usage: scripts/serve_smoke.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
. "$(dirname "$0")/kill_mid_run.sh"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

N=16
CACHE=$DIR/cache

for engine in fast ref; do
  for recording in slots legacy; do
    tag="$engine-$recording"
    JOBS=$DIR/jobs.$tag
    JOURNAL=$DIR/journal.$tag

    "$ISF" fleet -n $N --seed 11 --engine "$engine" --recording "$recording" \
        --emit "$JOBS" > /dev/null

    # the uninterrupted sequential reference
    "$ISF" fleet --file "$JOBS" --sequential --out "$DIR/expected.$tag" \
        > /dev/null

    # daemon drain with journal + cache, killed mid-fleet: after N+1
    # records past the meta, at most N of which are submissions, so at
    # least one job has run
    "$ISF" serve --job-file "$JOBS" --journal "$JOURNAL" --cache "$CACHE" \
        -j 3 --results "$DIR/killed.$tag" > /dev/null 2>&1 &
    kill_mid_run $! $((N + 1)) "[$tag] daemon $!" log_records "$JOURNAL"

    # restart on the same journal: completed jobs replay, in-flight jobs
    # re-run, nothing is lost
    "$ISF" serve --job-file "$JOBS" --journal "$JOURNAL" --cache "$CACHE" \
        -j 3 --results "$DIR/resumed.$tag" > "$DIR/resume_log.$tag"

    if [ "$(wc -l < "$DIR/resumed.$tag")" -ne $N ]; then
        echo "FAIL[$tag]: expected $N results, got $(wc -l < "$DIR/resumed.$tag")" >&2
        exit 1
    fi
    if ! cmp -s "$DIR/expected.$tag" "$DIR/resumed.$tag"; then
        echo "FAIL[$tag]: resumed results differ from the sequential reference" >&2
        diff "$DIR/expected.$tag" "$DIR/resumed.$tag" >&2 || true
        exit 1
    fi
    echo "[$tag] resume byte-identical ($(grep -o '[0-9]* replayed' "$DIR/resume_log.$tag" | head -1 || echo '? replayed') from journal)"
  done
done

# a journal written under one configuration refuses a different one
if "$ISF" serve --job-file "$DIR/jobs.fast-slots" \
    --journal "$DIR/journal.fast-ref-mismatch" --chaos 7 \
    --results /dev/null > /dev/null 2>&1 && \
   "$ISF" serve --job-file "$DIR/jobs.fast-slots" \
    --journal "$DIR/journal.fast-ref-mismatch" --chaos 8 \
    --results /dev/null > /dev/null 2>&1; then
    echo "FAIL: journal accepted a mismatched daemon configuration" >&2
    exit 1
fi
echo "journal refuses a mismatched configuration"

# The legs below run uncached fleets under `timeout`: a drain that
# wedges fails the leg (exit 124, or 137 from `timeout -s KILL`)
# instead of hanging CI.
"$ISF" fleet -n 40 --seed 31 --emit "$DIR/jobs.drain" > /dev/null
timeout 120 "$ISF" fleet --file "$DIR/jobs.drain" --sequential \
    --out "$DIR/expected.drain" > /dev/null

# SIGTERM during a journaled job-file drain, once all 40 submissions
# and about 10 completions are journaled: exit 143, and the rerun on
# the same journal is byte-identical
timeout -s KILL 120 "$ISF" serve --job-file "$DIR/jobs.drain" \
    --journal "$DIR/journal.term" -j 2 --results /dev/null \
    > /dev/null 2>&1 &
kill_mid_run $! 60 "serve --job-file" log_records "$DIR/journal.term" TERM
timeout 120 "$ISF" serve --job-file "$DIR/jobs.drain" \
    --journal "$DIR/journal.term" -j 2 --results "$DIR/term.txt" > /dev/null
cmp -s "$DIR/expected.drain" "$DIR/term.txt" || {
    echo "FAIL: rerun after SIGTERM differs from the sequential reference" >&2
    exit 1
}
echo "SIGTERM mid-drain exits 143, rerun byte-identical"

# a journal killed with a wide backlog resumes on one worker whose
# capacity is below the backlog: it must finish, byte-identically
"$ISF" fleet --file "$DIR/jobs.drain" --journal "$DIR/journal.narrow" \
    -j 1 --capacity 12 --out /dev/null > /dev/null 2>&1 &
kill_mid_run $! 16 "fleet -j 1 --capacity 12" log_records \
    "$DIR/journal.narrow"
timeout 120 "$ISF" fleet --file "$DIR/jobs.drain" \
    --journal "$DIR/journal.narrow" -j 1 --capacity 2 \
    --out "$DIR/narrow.txt" > /dev/null
cmp -s "$DIR/expected.drain" "$DIR/narrow.txt" || {
    echo "FAIL: narrow resume differs from the sequential reference" >&2
    exit 1
}
echo "resume with -j 1 --capacity 2 finishes byte-identically"

# a journal that cannot grow past a file-size limit ends the drain
# with exit 2, and a rerun without the limit resumes byte-identically
CODE=0
(trap '' XFSZ; ulimit -f 4
 exec timeout -s KILL 20 "$ISF" serve --job-file "$DIR/jobs.drain" \
    --journal "$DIR/journal.full" -j 2 --results /dev/null) \
    > /dev/null 2> "$DIR/full.err" || CODE=$?
if [ "$CODE" -ne 2 ] || [ "$(grep -c '^isf:' "$DIR/full.err")" -ne 1 ]; then
    echo "FAIL: a failed journal append exited $CODE;" \
        "expected 2 and one isf: line" >&2
    cat "$DIR/full.err" >&2
    exit 1
fi
timeout 120 "$ISF" serve --job-file "$DIR/jobs.drain" \
    --journal "$DIR/journal.full" -j 2 --results "$DIR/full.txt" > /dev/null
cmp -s "$DIR/expected.drain" "$DIR/full.txt" || {
    echo "FAIL: resume after a failed append differs from the reference" >&2
    exit 1
}
echo "a failed journal append exits 2, resume byte-identical"

# socket front-end: a --capacity 4 daemon sheds most of the client's
# first window, and the 40-job fleet runs over the socket twice (the
# second run's daemon ids continue from the first's): both outputs are
# byte-identical to the sequential reference and each run is shed at
# most one window (32); then a graceful SIGTERM
SOCK=$DIR/serve.sock
timeout -s KILL 300 "$ISF" serve --socket "$SOCK" -j 2 --capacity 4 \
    --cache "$CACHE" > /dev/null 2>&1 &
SPID=$!
for i in $(seq 1 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK" >&2; exit 1; }

for run in 1 2; do
    CODE=0
    timeout 120 "$ISF" fleet --file "$DIR/jobs.drain" --socket "$SOCK" \
        --out "$DIR/socket.$run" > "$DIR/socket_log.$run" || CODE=$?
    SHED=$(sed -n 's/^isf fleet: \([0-9]*\) submission(s) shed.*/\1/p' \
        "$DIR/socket_log.$run")
    if [ "$CODE" -ne 0 ] || ! cmp -s "$DIR/expected.drain" "$DIR/socket.$run"
    then
        kill -TERM "$SPID" 2>/dev/null || true
        echo "FAIL: socket fleet run $run exited $CODE or differs from the" \
            "sequential reference" >&2
        exit 1
    fi
    if [ "${SHED:-0}" -gt 32 ]; then
        kill -TERM "$SPID" 2>/dev/null || true
        echo "FAIL: socket fleet run $run shed $SHED submissions (> 32)" >&2
        exit 1
    fi
    echo "socket fleet run $run byte-identical, ${SHED:-0} shed"
done
CODE=0
kill -TERM "$SPID"
wait "$SPID" && : || CODE=$?
if [ "${CODE:-0}" -ne 143 ]; then
    echo "FAIL: SIGTERM shutdown exited ${CODE:-0}, expected 143" >&2
    exit 1
fi
[ -S "$SOCK" ] && { echo "FAIL: socket file left behind" >&2; exit 1; }
echo "socket mode OK, SIGTERM exits 143 and unlinks the socket"

# two daemons sharing one --cache directory at once: both complete,
# both byte-identical (temp+rename keeps racing writers safe)
"$ISF" fleet -n $N --seed 23 --emit "$DIR/jobs.share2" > /dev/null
"$ISF" fleet --file "$DIR/jobs.share2" --sequential --out "$DIR/expected.share2" \
    > /dev/null
"$ISF" serve --job-file "$DIR/jobs.fast-slots" --cache "$CACHE" -j 2 \
    --results "$DIR/share1.txt" > /dev/null &
P1=$!
"$ISF" serve --job-file "$DIR/jobs.share2" --cache "$CACHE" -j 2 \
    --results "$DIR/share2.txt" > /dev/null &
P2=$!
wait "$P1" || { echo "FAIL: shared-cache daemon 1 failed" >&2; exit 1; }
wait "$P2" || { echo "FAIL: shared-cache daemon 2 failed" >&2; exit 1; }
cmp -s "$DIR/expected.fast-slots" "$DIR/share1.txt" || {
    echo "FAIL: shared-cache daemon 1 results differ" >&2; exit 1; }
cmp -s "$DIR/expected.share2" "$DIR/share2.txt" || {
    echo "FAIL: shared-cache daemon 2 results differ" >&2; exit 1; }
echo "two daemons shared one cache directory safely"

# chaos fleet with poison jobs: every failure classified, poisons
# quarantined, exit 0 (the gates are enforced by `isf fleet` itself)
"$ISF" fleet -n $N --seed 5 --poison 2 --chaos 42 -j 2 \
    --out "$DIR/chaos.txt" > "$DIR/chaos_log.txt"
grep -q "2 quarantined" "$DIR/chaos_log.txt" || {
    echo "FAIL: poison jobs were not quarantined" >&2
    cat "$DIR/chaos_log.txt" >&2
    exit 1
}
echo "chaos fleet: all failures classified, poison jobs quarantined"

echo "serve smoke OK"
