#!/usr/bin/env python3
"""commhate benchmark: real CLI pipelines on seeded inputs, timed end to end
with tracing off, and per layer in a separate traced run.

Usage (from the repository root):

    python3 bench/run.py --workload dump_pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced then traced

Load is one closed-loop client: each pass runs the workload's CLI steps in
a fresh ``python3 bench/worker.py`` process, and the next pass starts when
the previous one has exited. After one warm-up pass, passes repeat until
``--seconds`` have elapsed. With ``--trace 1`` traced and untraced passes
alternate; the per-layer metrics are medians over the traced passes and
``trace.overhead_s`` is the difference of the two wall-time medians.

Every pass is checked: each step exits 0, the workload's output checks
hold and every step's artifacts equal the warm-up pass's (ignoring report
timestamps). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
if any check failed, 2 if the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from itertools import cycle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
RUN_CAP_S = 165  # a run ends its pass loop after this long, whatever --seconds says
MIN_TIMED = 3  # timed passes of each kind a run needs, however long they take
ACCOUNTING_TOLERANCE_S = 1e-6


def machine_context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _normalized(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        obj = json.loads(data)
        if isinstance(obj, dict):
            obj.pop("timestamp", None)  # the one field reports may vary in
        data = json.dumps(obj, sort_keys=True).encode()
    return data


def tree_digests(top: str) -> dict:
    """relative path -> sha256 of the normalized file, for every artifact
    under top. Manifests are left out: they describe a run (and may carry
    its timings), they are not the run's results."""
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, top)] = hashlib.sha256(_normalized(path)).hexdigest()
    return out


class Run:
    """All passes of one workload at one seed, in one trace mode."""

    def __init__(self, workload, seed: int, seconds: int, trace: bool) -> None:
        self.wl, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.monotonic()
        self.dir = os.path.join(WORK, "runs", f"{workload.name}-s{seed}-t{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        inp_dir, counts = None, {}
        if workload.inputs:
            kind, sizes = workload.inputs
            inp_dir, counts = gen.cached(os.path.join(WORK, "inputs"), kind, seed, sizes)
        # Every pass directory sits at the same depth, so one relative input
        # path serves all passes and their manifests stay comparable.
        first_pass = os.path.join(self.dir, "pass000", "work")
        inp = os.path.relpath(inp_dir, first_pass) if inp_dir else ""
        self.steps, self.line_counts = workload.steps(seed, inp, counts)
        self.reference: dict | None = None  # step output dir -> file digests
        self.digest: str | None = None  # of the main report, normalized
        self.attempted = self.failed = 0
        self.errors: list = []
        self.spans_kept: str | None = None

    def _env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def one_pass(self, index: int, traced: bool) -> dict | None:
        pdir = os.path.join(self.dir, f"pass{index:03d}")
        wdir = os.path.join(pdir, "work")
        os.makedirs(wdir)
        job = {
            "steps": [s.argv for s in self.steps],
            "trace": traced,
            "line_counts": self.line_counts,
            "result": os.path.join(pdir, "result.json"),
            "spans": os.path.join(pdir, "spans.jsonl"),
        }
        job_path = os.path.join(pdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        remaining = RUN_CAP_S + 10 - (time.monotonic() - self.started)
        self.attempted += len(self.steps)
        spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                                  cwd=wdir, env=self._env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            self._fail(len(self.steps), f"pass {index}: timed out")
            return None
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            tail = proc.stderr.decode(errors="replace")[-2000:]
            self._fail(len(self.steps), f"pass {index}: worker exited {proc.returncode}\n{tail}")
            return None
        with open(job["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        res["setup_s"] = res["ready"] - spawn
        res["traced"] = traced
        self._check(index, wdir, res)
        if traced:
            gap = abs(res["layers"]["accounted_s"] - res["traced_wall_s"])
            if gap > ACCOUNTING_TOLERANCE_S:
                self._fail(1, f"pass {index}: layer self times miss the traced wall time by {gap:.3e} s")
            self.spans_kept = job["spans"]
        if index > 0:
            shutil.rmtree(wdir)
        return res

    def _fail(self, n: int, message: str) -> None:
        self.failed += n
        self.errors.append(message)

    def _check(self, index: int, wdir: str, res: dict) -> None:
        digests = {}
        for step, rc in zip(self.steps, res["codes"]):
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if not problems:
                try:
                    problems = step.check(wdir) if step.check else []
                    digests[step.out] = tree_digests(os.path.join(wdir, step.out))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"output unreadable: {exc!r}"]
            if not problems and self.reference is not None:
                if digests[step.out] != self.reference.get(step.out):
                    problems = [f"artifacts in {step.out}/ differ from the warm-up pass"]
            if problems:
                self._fail(1, f"pass {index} step {step.argv[0]} ({step.out}): " + "; ".join(problems))
        if self.reference is None:
            self.reference = digests
            main = os.path.join(wdir, self.wl.main_report)
            self.digest = hashlib.sha256(_normalized(main)).hexdigest() if os.path.exists(main) else None

    def execute(self) -> dict:
        context_before = machine_context()
        self.one_pass(0, traced=False)  # warm-up: fills caches, sets the reference artifacts
        deadline = time.monotonic() + self.seconds
        timed: list = []
        kinds = cycle([True, False] if self.trace else [False])
        index = 1
        while True:
            res = self.one_pass(index, next(kinds))
            index += 1
            if res is not None:
                timed.append(res)
            now = time.monotonic()
            if now - self.started > RUN_CAP_S:
                break
            untraced = sum(1 for r in timed if not r["traced"])
            traced = len(timed) - untraced
            if now >= deadline and untraced >= MIN_TIMED and (traced >= MIN_TIMED or not self.trace):
                break
            if self.failed and len(timed) < index - 1:
                break  # a pass died: more of the same would only repeat it
        numpy_version = next((r["numpy"] for r in timed), None)
        return self._summarize(timed, context_before, numpy_version)

    def _summarize(self, timed: list, context_before: dict, numpy_version) -> dict:
        untraced = [r for r in timed if not r["traced"]]
        traced = [r for r in timed if r["traced"]]
        metrics, notes = {}, []
        if not untraced or (self.trace and not traced):
            self._fail(0, "no timed pass completed")
        elif self.trace:
            metrics = {name: statistics.median(r["layers"][name] for r in traced)
                       for name in layers.METRICS if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = (statistics.median(r["traced_wall_s"] for r in traced)
                                          - statistics.median(r["wall_s"] for r in untraced))
            unattributed = sorted({n for r in traced for n in r["layers"]["unattributed"]})
            if unattributed:
                notes.append(f"spans charged to cli.self.s: {unattributed}")
            hook_errors = sum(r["layers"]["hook_errors"] for r in traced)
            if hook_errors:
                notes.append(f"{hook_errors} count hook call(s) raised; their counts are missing")
        else:
            metrics = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END}
        units = {n: u for n, (u, _) in layers.METRICS.items()} if self.trace else END_TO_END
        return {
            "workload": self.wl.name, "seed": self.seed, "trace": int(self.trace),
            "seconds": self.seconds, "samples": len(traced if self.trace else untraced),
            "warmup_passes": 1, "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "notes": notes, "digest": self.digest,
            "context": {"before": context_before, "after": machine_context(),
                        "numpy": numpy_version},
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            "passes": [{k: r[k] for k in ("traced", *END_TO_END)} for r in timed],
        }


def report(result: dict) -> None:
    ctx = result["context"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['samples']} timed passes (+{result['warmup_passes']} warm-up), "
          f"{result['attempted']} steps attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / max(result['attempted'], 1):.4f}")
    print(f"# python {ctx['before']['python']} numpy {ctx['numpy']} nproc {ctx['before']['nproc']} "
          f"loadavg before {ctx['before']['loadavg']} after {ctx['after']['loadavg']}")
    untraced = [p for p in result["passes"] if not p["traced"]]
    for name, m in result["metrics"].items():
        extra = ""
        if name in END_TO_END and untraced:
            values = [p[name] for p in untraced]
            extra = f"  (min {min(values):.6g}, max {max(values):.6g})"
        print(f"{name:40s} {m['value']:14.6f} {m['unit']}{extra}")
    if result["digest"]:
        print(f"# main report digest sha256:{result['digest']}")
    for note in result["notes"]:
        print(f"# note: {note}")
    for err in result["errors"]:
        print(f"# FAILED: {err}", file=sys.stderr)


def save(result: dict, spans: str | None) -> None:
    out = os.path.join(WORK, "results")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{result['workload']}-s{result['seed']}-t{result['trace']}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if spans:
        shutil.copyfile(spans, stem + "-spans.jsonl")


def run_one(workload, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    result = run.execute()
    save(result, run.spans_kept)
    shutil.rmtree(run.dir, ignore_errors=True)
    report(result)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "commhate", "cli.py")):
        print(f"bench: no program to measure: {ROOT}/src/commhate is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = [run_one(WORKLOADS[name], args.seed, args.seconds, trace)
                   for name in WORKLOADS for trace in (False, True)]
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    else:
        results = [run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))]
        metrics = results[0]["metrics"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["errors"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
