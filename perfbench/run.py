#!/usr/bin/env python3
"""LAEC campaign benchmark: build, run, compare, self-test.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload full_grid --seed 1 --seconds 30 --trace 0

builds the `perfbench` package (offline, into $CARGO_TARGET_DIR, default
`.bench_build`) and runs it with the given arguments. The last stdout line
is the result JSON; per-run result files (with every sample) and span files
go to `.bench_results/`.

Compare the result files of two commits (one or more per side):

    python3 perfbench/run.py compare --base A/*.json --head B/*.json

Check the checks (negative control, stripped checkout):

    python3 perfbench/run.py selftest

See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark and returns its executable, or exits non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.exit("perfbench: the repository's crates are missing; nothing to build")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    built = subprocess.run(command, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    return os.path.join(target, "release", "laec-perfbench")


def run(arguments):
    binary = build()
    return subprocess.run([binary] + arguments, cwd=ROOT).returncode


def load_results(paths):
    """Groups result files by (workload, trace flag)."""
    groups = {}
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        groups.setdefault((result["workload"], result["trace"]), []).append(result)
    return groups


def central(results, metric):
    """Median, quartiles and count of one metric: across runs when there
    are several, else the run's own samples."""
    values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return median, q1, q3, len(values)
    if not values:
        return None
    single = results[0]["metrics"][metric]
    return (
        single.get("median", single["value"]),
        single.get("q1", single["value"]),
        single.get("q3", single["value"]),
        single.get("n", 1),
    )


def compare(base_paths, head_paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    base, head = load_results(base_paths), load_results(head_paths)
    header = (f"{'workload':<15} {'metric':<30} {'base median':>14} {'head median':>14} "
              f"{'head/base':>10} {'base spread':>11} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(head)):
        workload, _ = key
        names = sorted(set().union(*(r["metrics"] for r in base[key])))
        for name in names:
            b, h = central(base[key], name), central(head[key], name)
            if b is None or h is None:
                continue
            ratio = h[0] / b[0] if b[0] else float("nan")
            spread = (b[2] - b[1]) / abs(b[0]) if b[0] else 0.0
            declared_metric = bounds.get(name)
            if declared_metric is None:
                bound, verdict = "-", "no bound"
            else:
                bound = declared_metric["bound"]
                worse = (1 - ratio) if declared_metric["better"] == "higher" else (ratio - 1)
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                elif -worse > spread:
                    verdict = "better"
                else:
                    verdict = "within bound"
                bound = f"{bound:.2f}"
            print(f"{workload:<15} {name:<30} {b[0]:>14.6g} {h[0]:>14.6g} "
                  f"{ratio:>10.4f} {spread:>11.3f} {bound:>6}  {verdict}")
    print("head/base = head median / base median; spread = base (q3 - q1) / median "
          "over base runs (or over one run's samples)")


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def selftest():
    failures = []
    # Negative control: a perturbed reference must fail the run.
    binary = build()
    perturbed = subprocess.run(
        [binary, "--workload", "smp_meta", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--perturb-reference", "--out-dir", ".bench_results/selftest"],
        cwd=ROOT, capture_output=True, text=True)
    result = last_json(perturbed.stdout)
    fail_ratio = result and result["failed"] / result["attempted"]
    if perturbed.returncode == 0 or not result or result["correct"] or not fail_ratio:
        failures.append(f"perturbed reference was not caught "
                        f"(exit {perturbed.returncode}, result {result})")
    else:
        print(f"negative control: exit {perturbed.returncode}, fail_ratio {fail_ratio:.4f}")

    # A checkout holding only BENCHMARK.json and perfbench/ must fail cleanly.
    stripped = os.path.join(ROOT, ".bench_results", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(stripped, ".bench_build")))
    shutil.rmtree(stripped, ignore_errors=True)
    if bare.returncode == 0 or last_json(bare.stdout) is not None:
        failures.append(f"stripped checkout did not fail cleanly (exit {bare.returncode})")
    else:
        print(f"stripped checkout: exit {bare.returncode}, no result printed")

    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    return 1 if failures else 0


def main(argv):
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--base" not in rest or "--head" not in rest:
            sys.exit("usage: run.py compare --base FILE... --head FILE...")
        b, h = rest.index("--base"), rest.index("--head")
        base = rest[b + 1:h] if b < h else rest[b + 1:]
        head = rest[h + 1:] if b < h else rest[h + 1:b]
        compare(base, head)
        return 0
    if argv[:1] == ["selftest"]:
        return selftest()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
