#!/usr/bin/env python3
"""RIP-sampling profiler for hosts without `perf` (x86-64 Linux only).

Starts COMMAND as its own traced child, stops it every INTERVAL_MS
milliseconds, reads its instruction pointer with PTRACE_GETREGS and maps
it to a symbol of the child's executable through `nm` and the child's
/proc/PID/maps.  It acts only on the process it started, and samples
only that process's main thread (run the VM single-domain: -j 1).

    scripts/ripprof.py [INTERVAL_MS] -- COMMAND [ARGS...]
    FOCUS=camlVm__Engine.fun_1953 scripts/ripprof.py 2 -- ./isf.exe run javac

Prints the top symbols by share of samples; with FOCUS=symbol, a
histogram of that symbol's samples by offset instead (read it beside
`objdump -d`).  Only samples inside the executable's own code are
mapped to its symbols; the rest are filed under the path of the
mapping they fell in (a shared library, `[vdso]`), or under
`[outside executable]` when no executable mapping holds them.
"""
import collections, ctypes, os, signal, subprocess, sys, time

PTRACE_TRACEME, PTRACE_CONT, PTRACE_GETREGS = 0, 7, 12
RIP = 16  # index of rip in struct user_regs_struct (27 unsigned longs)

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def symbols(exe):
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True, text=True).stdout
    syms = [(int(a, 16), n) for a, t, n in (l.split(None, 2) for l in out.splitlines() if l.count(" ") >= 2) if t in "tTwW"]
    return [a for a, _ in syms], [n for _, n in syms]


def exec_maps(pid):
    """The child's executable mappings, as (lo, hi, path)."""
    out = []
    for line in open(f"/proc/{pid}/maps"):
        parts = line.split()
        if len(parts) >= 5 and "x" in parts[1]:
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            out.append((lo, hi, parts[5] if len(parts) >= 6 else "[anonymous]"))
    return out


def load_bias(pid, exe):
    with open(exe, "rb") as f:
        pie = f.read(18)[16] == 3  # e_type ET_DYN
    if not pie:
        return 0
    real = os.path.realpath(exe)
    for line in open(f"/proc/{pid}/maps"):
        parts = line.split()
        if len(parts) >= 6 and parts[5] == real and int(parts[2], 16) == 0:
            return int(parts[0].split("-")[0], 16)
    raise SystemExit("ripprof: executable mapping not found")


def main():
    args = sys.argv[1:]
    interval = float(args.pop(0)) / 1000 if args and args[0] != "--" else 0.002
    cmd = args[args.index("--") + 1:] if "--" in args else args
    exe = subprocess.run(["which", cmd[0]], capture_output=True, text=True).stdout.strip() or cmd[0]
    pid = os.fork()
    if pid == 0:
        libc.ptrace(PTRACE_TRACEME, 0, None, None)
        os.execvp(cmd[0], cmd)
    os.waitpid(pid, 0)  # stopped at exec
    addrs, names = symbols(exe)
    bias = load_bias(pid, exe)
    real = os.path.realpath(exe)
    maps = []
    regs = (ctypes.c_ulong * 27)()
    hits = collections.Counter()  # executable-relative address -> samples
    foreign = collections.Counter()  # mapping path -> samples

    def file_sample(rip):
        nonlocal maps
        where = next((m for m in maps if m[0] <= rip < m[1]), None)
        if where is None:
            maps = exec_maps(pid)  # the child is stopped: a stable view
            where = next((m for m in maps if m[0] <= rip < m[1]), None)
        if where is not None and where[2] == real:
            hits[rip - bias] += 1
        else:
            foreign[where[2] if where else "[outside executable]"] += 1

    libc.ptrace(PTRACE_CONT, pid, None, None)
    while True:
        time.sleep(interval)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            break
        _, status = os.waitpid(pid, 0)
        if not os.WIFSTOPPED(status):
            break
        sig = os.WSTOPSIG(status)
        if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0 and sig == signal.SIGSTOP:
            file_sample(regs[RIP])
        libc.ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(0 if sig == signal.SIGSTOP else sig))
    import bisect
    by_sym, focus = collections.Counter(foreign), collections.Counter()
    want = os.environ.get("FOCUS")
    for a, n in hits.items():
        i = bisect.bisect_right(addrs, a) - 1
        name = names[i] if i >= 0 else "?"
        by_sym[name] += n
        if name == want:
            focus[a - addrs[i]] += n
    total = sum(by_sym.values()) or 1
    print(f"{total} samples")
    rows = sorted(focus.items()) if want else by_sym.most_common(25)
    for k, n in rows:
        print(f"{100.0 * n / total:6.2f}%  {hex(k) if want else k}")


if __name__ == "__main__":
    main()
