#!/bin/sh
# Serve-mode smoke test (ISSUE 8): for every engine x recording
# combination, emit a deterministic fleet, run it sequentially as the
# byte-identity reference, then drain it through a multi-worker daemon
# with a journal and a shared cache — SIGKILL the daemon mid-fleet,
# restart it on the same journal, and require zero lost jobs and
# results byte-identical to the reference.  Also exercises the socket
# front-end, graceful SIGTERM shutdown, and two daemons sharing one
# --cache directory.
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
    kill_mid_run $! "$JOURNAL" $((N + 1)) "[$tag] daemon $!"

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

# socket front-end: daemon up, fleet over the socket, graceful SIGTERM
SOCK=$DIR/serve.sock
"$ISF" serve --socket "$SOCK" -j 2 --cache "$CACHE" > /dev/null 2>&1 &
SPID=$!
for i in $(seq 1 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK" >&2; exit 1; }

"$ISF" fleet --file "$DIR/jobs.fast-slots" --socket "$SOCK" \
    --out "$DIR/socket.txt" > /dev/null
cmp -s "$DIR/expected.fast-slots" "$DIR/socket.txt" || {
    echo "FAIL: socket results differ from the sequential reference" >&2
    exit 1
}
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
