# Shared by crash_recovery.sh and serve_smoke.sh (sourced, not run):
# SIGKILL (or SIGTERM) a background process once a counter of its
# progress reaches a given number.  A counter is a function that sets
# km_count:
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

# kill_mid_run PID N LABEL COUNTER ARG [SIGNAL]: run COUNTER ARG
# every 10 ms until it reads at least N, then send PID SIGNAL (KILL by
# default, or TERM) and reap it, requiring exit 128+signum.  Fails
# (exit 1) when the process exits on its own first, or after 6000
# polls: a leg that kills nothing tests only the replay of a finished
# run.
kill_mid_run() {
    km_sig=${6:-KILL}
    case $km_sig in
        KILL) km_want=137 ;;
        TERM) km_want=143 ;;
    esac
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
    kill -"$km_sig" "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null && km_code=0 || km_code=$?
    if [ "$km_code" -ne "$km_want" ]; then
        echo "FAIL: $3 exited ($km_code) on SIG$km_sig, expected $km_want" >&2
        exit 1
    fi
    echo "sent SIG$km_sig to $3 once $4 read $km_count"
}
