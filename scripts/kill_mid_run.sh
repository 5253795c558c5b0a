# Shared by crash_recovery.sh and serve_smoke.sh (sourced, not run):
# SIGKILL a background process once a counter of its progress reaches
# a given number.  A counter is a function that sets km_count:
#   log_records FILE  records past the meta in a record log (Harness.Log:
#                     an 8-byte little-endian body length, the body's
#                     MD5, then the body; the first record is the meta)
#   cache_cells DIR   run cache entries (*.cell files) in DIR

# record_len FILE OFF: the body length of the record that starts at OFF
record_len() {
    od -An -v -t u1 -j "$2" -N 8 "$1" |
        awk '{ v = 0; for (i = NF; i >= 1; i--) v = v * 256 + $i; print v }'
}

# Each poll reads only the records appended since the last one.
log_records() {
    km_size=0
    if [ -f "$1" ]; then km_size=$(wc -c < "$1"); fi
    while [ $((km_off + 24)) -le "$km_size" ]; do
        km_end=$((km_off + 24 + $(record_len "$1" "$km_off")))
        [ "$km_end" -le "$km_size" ] || break
        km_off=$km_end
        km_n=$((km_n + 1))
    done
    km_count=$((km_n - 1))
}

cache_cells() {
    km_count=$(find "$1" -maxdepth 1 -name '*.cell' 2>/dev/null | wc -l)
}

# kill_mid_run PID N LABEL COUNTER ARG: run COUNTER ARG every 10 ms
# until it reads at least N, then SIGKILL PID and reap it.  Fails
# (exit 1) when the process exits on its own first, or after 6000
# polls: a leg that kills nothing tests only the replay of a finished
# run.
kill_mid_run() {
    km_off=0
    km_n=0
    km_polls=0
    while :; do
        "$4" "$5"
        [ "$km_count" -lt "$2" ] || break
        km_polls=$((km_polls + 1))
        if [ "$km_polls" -gt 6000 ]; then
            kill -KILL "$1" 2>/dev/null || true
            wait "$1" 2>/dev/null || true
            echo "FAIL: $3: $4 $5 never reached $2" >&2
            exit 1
        fi
        sleep 0.01
    done
    kill -KILL "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null && km_code=0 || km_code=$?
    if [ "$km_code" -ne 137 ]; then
        echo "FAIL: $3 exited ($km_code) before the kill" >&2
        exit 1
    fi
    echo "killed $3 once $4 read $km_count"
}
