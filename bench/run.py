"""Benchmark of the awpi workbench: time to a correct verdict.

Usage, from the root of a checkout::

    python3 bench/run.py --workload game|closed|syntax --seed N \\
        --seconds S --trace 0|1

The load is a closed loop: one client, one query at a time, in a single
process with no extra threads.  Each pass over a workload runs in a fresh
interpreter started with the ``spawn`` method, one at a time, because the
program keeps process-global caches that a second pass in the same process
would find warm.  Passes repeat until ``--seconds`` have elapsed; a run
makes at least two passes (one traced pair with ``--trace 1``), and past
that starts none that would overrun ``--seconds`` by more than a fifth.

Times are in reference seconds: each pass also times a fixed pure-Python
loop between its queries and scales its times by how much slower than its
reference time that loop ran (see ``workloads.CALIBRATION_REF_S``), so that
the drifting speed of a shared machine does not read as a change of the
program.  Raw seconds are printed and recorded next to them.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its passes; ``ok_ratio`` is the share of ops that succeeded, so a
change that breaks more of them than before shows even where the failure
is a known defect.  It also prints the slowest query (each query timed as
its median over the passes) and the share of failed ops.  With
``--trace 1`` it alternates untraced and traced passes and reports
per-layer self times and counts from the traced passes, and the tracing
overhead (traced minus untraced ``wall_s``).

Every query checks its outcome.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts the ops that failed in a way that is not a known defect
of the program (see ``workloads.Query``), so that on the program as it is
no op fails and two runs agree on it.  Ops that fail as a known defect are
still checked, printed and recorded, and count in ``ok_ratio`` and
``failed_ratio``; past the limits of ``workloads.DEFECT_LIMITS`` they are
no longer tolerated.  ``correct`` is false when ``failed`` is not 0, when
two passes of one run disagree on a verdict, or when two traced passes
disagree on a count.  A full run record goes to ``bench/results/``.
"""

import argparse
import compileall
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("game", "closed", "syntax")
HASH_SEED = "0"
MIN_PASSES = 2
OVERRUN = 1.2  # past MIN_PASSES, no pass may end after OVERRUN * seconds
RUN_DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops": "count",
         "ok_ratio": "ratio"}
# printed and recorded, but not end-to-end metrics of the result line
RAW = ("raw_setup_s", "raw_wall_s")


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


class RunError(Exception):
    pass


def worker(conn, src, workload, seed, trace, started):
    """Entry point of a spawned interpreter: send one pass's result."""
    try:
        import awpi
        if not awpi.__file__.startswith(str(src)):
            raise ImportError(f"awpi imported from {awpi.__file__}, "
                              f"not from {src}")
        import workloads
        conn.send(workloads.run_pass(workload, seed, trace, started))
    except Exception:
        conn.send({"error": traceback.format_exc()})
        raise
    finally:
        conn.close()


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.ctx = multiprocessing.get_context("spawn")
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, trace=False):
        recv, send = self.ctx.Pipe(duplex=False)
        started = time.monotonic()
        proc = self.ctx.Process(
            target=worker,
            args=(send, ROOT / "src", self.workload, self.seed, trace,
                  started))
        proc.start()
        send.close()
        try:
            if not recv.poll(max(0.0, self.deadline - time.monotonic())):
                raise RunError(f"{self.workload} pass exceeded the "
                               f"{RUN_DEADLINE_S:.0f} s run deadline")
            result = recv.recv()
        except EOFError:
            result = {"error": f"worker exited with code {proc.exitcode}"}
        finally:
            recv.close()
            if proc.is_alive():
                proc.join(5)
            if proc.is_alive():
                proc.kill()
            proc.join()
        if "error" in result:
            raise RunError(result["error"])
        return result


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "awpi").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(workload, seed, seconds, trace):
    """Run passes for about ``seconds``; return the run record."""
    runner = Runner(workload, seed)
    begin = time.monotonic()
    plain, traced = [], []
    longest = 0.0
    while True:
        t = time.monotonic()
        plain.append(runner.spawn())
        if trace:
            traced.append(runner.spawn(trace=True))
        now = time.monotonic()
        longest = max(longest, now - t)
        if now + longest > runner.deadline:
            break
        if len(plain) >= (1 if trace else MIN_PASSES) and (
                now - begin >= seconds
                or now - begin + longest > OVERRUN * seconds):
            break
    passes = plain + traced
    problems = [f"{name}: {kind}" for p in passes
                for name, kind, tolerated in p["failures"] if not tolerated]
    if any(p["verdicts"] != passes[0]["verdicts"] for p in passes):
        problems.append("verdicts differ between passes")
    counts = [counts_of(p["layers"]) for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between traced passes")
    # each query's median time over the passes
    query_s = {name: statistics.median(times) for (name, _), *times in
               zip(plain[0]["verdicts"], *[p["query_s"] for p in plain])}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    unexpected = sum(not tolerated for p in passes
                     for _, _, tolerated in p["failures"])
    record = {
        "workload": workload,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "passes": len(plain),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": unexpected,
        "known_defects": failed - unexpected,
        "failed_ratio": failed / attempted,
        "failures": plain[0]["failures"],
        "slowest_query": max(query_s, key=query_s.get),
        "slowest_query_s": max(query_s.values()),
        "query_s": query_s,
        "end_to_end": {
            "setup_s": summary([p["setup_s"] for p in passes]),
            "wall_s": summary([p["wall_s"] for p in plain]),
            "raw_setup_s": summary([p["raw_setup_s"] for p in passes]),
            "raw_wall_s": summary([p["raw_wall_s"] for p in plain]),
            "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain]),
            "ops": summary([p["ops"] for p in plain]),
            "ok_ratio": summary([1 - len(p["failures"]) / p["ops"]
                                 for p in plain]),
        },
    }
    if trace:
        layers = {k: summary([p["layers"][k] for p in traced])
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = summary(
            [t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain)])
        record["traced_passes"] = len(traced)
        record["per_layer"] = layers
    return record


def counts_of(layers):
    """The deterministic part of a traced pass's layer metrics."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def metrics_of(record, trace):
    """The reported metrics: end-to-end, or per-layer for a traced run."""
    if trace:
        return {k: {"value": s["median"], "unit": layer_unit(k)}
                for k, s in record["per_layer"].items() if k != "spans"}
    return {k: {"value": s["median"], "unit": UNITS[k]}
            for k, s in record["end_to_end"].items() if k not in RAW}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(record):
    w = record["workload"]
    stats = record["per_layer"] if record["trace"] else record["end_to_end"]
    shown = list(metrics_of(record, record["trace"]))
    if not record["trace"]:
        shown += RAW
    for name in shown:
        s = stats[name]
        unit = layer_unit(name) if record["trace"] else UNITS.get(name, "s")
        print(f"{w} {name} = {s['median']:.6g} {unit} "
              f"(median of {s['n']}, quartiles {s['q1']:.6g} .. "
              f"{s['q3']:.6g})")
    print(f"{w} slowest_query_s = {record['slowest_query_s']:.6g} s "
          f"({record['slowest_query']}, median of {record['passes']})")
    print(f"{w} failed_ratio = {record['failed_ratio']:.6g} "
          f"({record['known_defects']} of {record['attempted']} ops failed "
          f"as a known defect, {record['failed']} otherwise)")
    for name, kind, tolerated in record["failures"]:
        print(f"{w}   failed: {name} ({kind}"
              f"{', known defect' if tolerated else ''})")
    for problem in record["problems"]:
        print(f"{w}   INCORRECT: {problem}")


def prepare():
    """Point spawned interpreters at the checkout's sources; False if the
    checkout has none."""
    if not (ROOT / "src" / "awpi" / "__init__.py").is_file():
        return False
    # passes load cached bytecode, as an installed package would, so no
    # pass's set-up time includes compiling the sources
    for path in (ROOT / "src" / "awpi", ROOT / "bench"):
        compileall.compile_dir(path, maxlevels=0, quiet=2)
    sys.path.insert(1, str(ROOT / "src"))
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not prepare():
        print(f"no awpi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        # the helper process that spawning starts; _stop waits for it to end
        getattr(resource_tracker._resource_tracker, "_stop", lambda: None)()
    out = ROOT / "bench" / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics_of(record, record["trace"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
