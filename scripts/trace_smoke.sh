#!/bin/sh
# Trace-invariance smoke test: the trace tier must change wall-clock
# only, never a byte of output.  `isf table all` with traces armed must
# be byte-identical to traces-off — on both engines (the reference
# ignores the flag), under both recording paths, with the adaptive tier
# on, with deterministic chaos (where the Fast legs must also match a
# Ref leg), and through a cold and a warm run cache (the trace setting
# is part of the run key, so trace-on and trace-off cells never alias).
#
# A low threshold (8) is used for most legs so the small table-cell
# scales actually record and run traces; one leg uses the CLI default
# (`--traces on`, threshold 256).  A final leg asserts via --stats that
# the tier genuinely engaged — recording, compiling, entering and
# side-exiting traces — so the byte-identity above is not vacuous.
#
# Usage: scripts/trace_smoke.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$ISF" table all -j 2 --engine fast > "$DIR/off.txt"

run() {
    name=$1; base=$2; shift 2
    "$ISF" table all -j 2 "$@" > "$DIR/$name.txt"
    if ! cmp -s "$DIR/$base.txt" "$DIR/$name.txt"; then
        echo "FAIL: trace-tier output differs for: $name" >&2
        diff "$DIR/$base.txt" "$DIR/$name.txt" >&2 || true
        exit 1
    fi
}

run on             off --engine fast --traces 8
run on-default     off --engine fast --traces on
run on-ref         off --engine ref  --traces 8
run on-legacy      off --engine fast --traces 8 --recording legacy
run on-cache-cold  off --engine fast --traces 8 --cache "$DIR/cache"
run on-cache-warm  off --engine fast --traces 8 --cache "$DIR/cache"

# with the adaptive tier on, the controller pauses and resumes tracing
# around its code swaps; neither may show in the Adaptive table (its
# Decisions column counts the controller's decision log)
"$ISF" table all -j 2 --adaptive --engine fast > "$DIR/adaptive-off.txt"
run adaptive-on    adaptive-off --engine fast --adaptive --traces on

# chaos: fault plans perturb the cells deterministically — some cells
# fail by design, so isf exits non-zero (shape gate / cell failures);
# traced and untraced runs must observe every fault at the same cycle:
# identical stdout bytes AND identical exit code
rc_off=0
"$ISF" table all -j 2 --engine fast --chaos 7 \
    > "$DIR/chaos-off.txt" 2> /dev/null || rc_off=$?
rc_on=0
"$ISF" table all -j 2 --engine fast --traces 8 --chaos 7 \
    > "$DIR/chaos-on.txt" 2> /dev/null || rc_on=$?
if [ "$rc_off" -ne "$rc_on" ]; then
    echo "FAIL: chaos exit codes differ traces off ($rc_off) vs on ($rc_on)" >&2
    exit 1
fi
if ! cmp -s "$DIR/chaos-off.txt" "$DIR/chaos-on.txt"; then
    echo "FAIL: trace-tier output differs under --chaos" >&2
    diff "$DIR/chaos-off.txt" "$DIR/chaos-on.txt" >&2 || true
    exit 1
fi

# ... and both must match the reference engine under the same plan: a
# fused-run or trace bug that fires only on fault events would cancel
# out between the two Fast legs above
rc_ref=0
"$ISF" table all -j 2 --engine ref --chaos 7 \
    > "$DIR/chaos-ref.txt" 2> /dev/null || rc_ref=$?
if [ "$rc_off" -ne "$rc_ref" ]; then
    echo "FAIL: chaos exit codes differ fast ($rc_off) vs ref ($rc_ref)" >&2
    exit 1
fi
if ! cmp -s "$DIR/chaos-off.txt" "$DIR/chaos-ref.txt"; then
    echo "FAIL: fast output differs from ref under --chaos" >&2
    diff "$DIR/chaos-off.txt" "$DIR/chaos-ref.txt" >&2 || true
    exit 1
fi

# the tier must actually have engaged: every event class non-zero
"$ISF" run compress --traces 8 --stats > /dev/null 2> "$DIR/stats.txt"
for ev in EV_RECORD EV_COMPILE EV_TRACE EV_EXIT; do
    count=$(awk -v ev="$ev" '$1 == ev { print $2 }' "$DIR/stats.txt")
    if [ -z "$count" ] || [ "$count" -le 0 ]; then
        echo "FAIL: --stats reports no $ev events (got '${count:-missing}')" >&2
        cat "$DIR/stats.txt" >&2
        exit 1
    fi
done

echo "trace invariance OK"
