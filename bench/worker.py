"""One pass of a workload, run in a fresh process so that peak memory and
set-up are per pass.

Usage: python3 bench/worker.py JOB.json   (working directory: the pass's
output directory; ``src`` on PYTHONPATH)

The job names the CLI argument lists to run through ``commhate.cli.main``
in this one process, whether to trace, and where to write the result. The
result holds the monotonic time at which the program became ready (the
parent subtracts its spawn time from it), the wall and CPU time of the
steps, the peak resident set and each step's exit code.
"""

import json
import resource
import sys
import time
import traceback


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)

    import commhate.cli as cli
    from commhate import textprep

    textprep.builtin_stopwords()
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        import layers
        import tracing

        tracer = tracing.Tracer()
        layers.install(tracer, job["line_counts"])

    codes = []
    stdout = sys.stdout
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    with open("cli_stdout.txt", "w", encoding="utf-8") as out:
        sys.stdout = out
        t0 = time.perf_counter()
        root = tracer.open("pass") if tracer else None
        for argv in job["steps"]:
            span = tracer.open(f"cli.{argv[0]}") if tracer else None
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = -1
            if tracer:
                tracer.close(span)
            codes.append(rc)
        if tracer:
            tracer.close(root)
        t1 = time.perf_counter()
        sys.stdout = stdout
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    numpy = sys.modules.get("numpy")
    result = {
        "ready": ready,
        "wall_s": t1 - t0,
        "cpu_s": _cpu(ru1) - _cpu(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "codes": codes,
        "numpy": numpy.__version__ if numpy else None,
    }
    if tracer:
        tracer.unpatch()
        _, start, end, _ = tracer.spans[root]
        result["traced_wall_s"] = end - start
        result["layers"] = layers.derive(tracer.spans, tracer.counts)
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
