# Shared by crash_recovery.sh and serve_smoke.sh (sourced, not run):
# SIGKILL a background process once its record log (Harness.Log: an
# 8-byte little-endian body length, the body's MD5, then the body; the
# first record is the meta string) holds a given number of records.

# record_len FILE OFF: the body length of the record that starts at OFF
record_len() {
    od -An -v -t u1 -j "$2" -N 8 "$1" |
        awk '{ v = 0; for (i = NF; i >= 1; i--) v = v * 256 + $i; print v }'
}

# kill_mid_run PID FILE N LABEL: poll FILE every 10 ms until it holds N
# records past its meta, then SIGKILL PID and reap it.  Each poll reads
# only the records appended since the last one.  Fails (exit 1) when
# the process exits on its own first, or after 6000 polls: a leg that
# kills nothing tests only the replay of a complete log.
kill_mid_run() {
    km_off=0
    km_n=0
    km_polls=0
    while :; do
        km_size=0
        if [ -f "$2" ]; then km_size=$(wc -c < "$2"); fi
        while [ $((km_off + 24)) -le "$km_size" ]; do
            km_end=$((km_off + 24 + $(record_len "$2" "$km_off")))
            [ "$km_end" -le "$km_size" ] || break
            km_off=$km_end
            km_n=$((km_n + 1))
        done
        [ "$km_n" -le "$3" ] || break
        km_polls=$((km_polls + 1))
        if [ "$km_polls" -gt 6000 ]; then
            kill -KILL "$1" 2>/dev/null || true
            wait "$1" 2>/dev/null || true
            echo "FAIL: $4 wrote no $3 records past the meta" >&2
            exit 1
        fi
        sleep 0.01
    done
    kill -KILL "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null && km_code=0 || km_code=$?
    if [ "$km_code" -ne 137 ]; then
        echo "FAIL: $4 exited ($km_code) before the kill" >&2
        exit 1
    fi
    echo "killed $4 once its log held $((km_n - 1)) records past the meta"
}
