"""One CLI run in a fresh interpreter, timed from the inside.

    python3 bench/child.py T0_NS RESULT_JSON MODE [CLI ARGS...]

T0_NS is time.monotonic_ns() read by the parent just before it started
this process; the monotonic clock is shared by all processes, so set-up
time counts interpreter start-up too.  MODE is "probe" (import only),
"plain" (run the command) or "trace" (run it with per-layer tracing).
Every run is a fresh process because the lru_caches in textpipe, porter and
lexstats live as long as the process does, and a CLI user never gets them
warm.
"""

import json
import resource
import sys
import time


def peak_rss_kb(usage) -> int:
    """High-water mark of this process's own resident memory, in kB.

    getrusage's ru_maxrss is no good here: at exec, Linux keeps the peak of
    the address space being replaced, and the child was started from the
    parent's (vfork), so ru_maxrss can report the benchmark parent's size.
    VmHWM belongs to the address space the CLI itself runs in.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss  # kilobytes on Linux


def main() -> None:
    t0_ns, result_path, mode = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    from corplex import cli

    result = {"setup_s": (time.monotonic_ns() - t0_ns) / 1e9}
    if mode != "probe":
        tracer = None
        if mode == "trace":
            import layertrace

            tracer = layertrace.install()
        start = time.perf_counter()
        result["rc"] = cli.main(sys.argv[4:])
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.report()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = peak_rss_kb(usage) / 1024
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(result_path, "w", encoding="utf-8") as fp:
        json.dump(result, fp)


if __name__ == "__main__":
    main()
