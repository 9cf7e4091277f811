"""Self-test of the benchmark harness.

Run from the root of a checkout::

    python3 bench/selftest.py

For each workload it runs one untraced and one traced pass and checks
that every metric named in ``BENCHMARK.json`` is reported with its unit,
that every op either succeeds or fails as a known defect, and that the
traced and untraced passes agree on every verdict.  A second traced pass
under another ``PYTHONHASHSEED`` must repeat every count exactly.  Last,
the benchmark must fail without printing a result in a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.  The file
name keeps it out of the test suite's collection.
"""

import json
import os
import shutil
import subprocess
import sys

import run as bench

SEED = 3


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    errors = []

    def check(ok, message):
        if not ok:
            errors.append(message)
            print(f"FAIL {message}", flush=True)

    if not bench.prepare():
        print("no awpi sources in this checkout", file=sys.stderr)
        return 2
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from the harness's")
    for workload in bench.WORKLOADS:
        record = bench.run(workload, SEED, 0, trace=True)
        check(record["correct"], f"{workload}: {record['problems']}")
        for kind, trace in (("end_to_end", False), ("per_layer", True)):
            got = bench.metrics_of(record, trace)
            for m in spec[kind]:
                check(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                      f"{workload}: {kind} metric {m['name']} missing or "
                      f"not in {m['unit']}")
            extra = set(got) - {m["name"] for m in spec[kind]}
            check(not extra, f"{workload}: unlisted {kind} metrics {extra}")
        os.environ["PYTHONHASHSEED"] = "1"
        try:
            other = bench.Runner(workload, SEED).spawn(trace=True)
        finally:
            os.environ["PYTHONHASHSEED"] = bench.HASH_SEED
        counts = {k: s["values"][0] for k, s in record["per_layer"].items()}
        check(bench.counts_of(other["layers"]) == bench.counts_of(counts),
              f"{workload}: counts change with the hash seed")
        print(f"{workload}: {record['attempted']} ops, "
              f"{record['known_defects']} failed as a known defect, "
              f"{record['failed']} otherwise, checked", flush=True)

    bare = bench.ROOT / "bench" / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(bench.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results",
                                                          "__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            spec["command"] + ["--workload", "closed", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        last = (out.stdout.strip().splitlines() or [""])[-1]
        check(out.returncode != 0 and not last.startswith("{"),
              "the benchmark does not fail without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
