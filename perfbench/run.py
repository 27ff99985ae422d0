"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload meta_train --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice, untraced and traced, and prints
every per-layer metric plus the tracing overhead.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run's full record (host fingerprint, host
probe, workload-specific figures), also appended to
``.bench_out/records.jsonl``.

The measured work runs in child processes (``perfbench/workloads.py``)
started with the BLAS pool pinned to one thread and every ``REPRO_*``
variable removed, so the library runs its default policies.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("meta_train", "serve_hot", "serve_churn")
SERVING = ("serve_hot", "serve_churn")
#: Set-up samples per untraced run (the measured child plus set-up-only
#: children); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Whole-run budget; the first run in a checkout may also train the
#: serving bundle and gets the larger one.
RUN_BUDGET_S = 170.0
FIRST_RUN_BUDGET_S = 850.0
PROBE_ITERATIONS = 15
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def child_env() -> dict:
    """The parent's environment without ``REPRO_*``, BLAS pinned to one
    thread, string hashing fixed and ``src`` importable.  Children read
    the bytecode :func:`run` compiled and write none (nothing outside the
    checkout)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    for variable in BLAS_THREAD_VARIABLES:
        env[variable] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def host_probe() -> list:
    """A fixed pure-Python CPU loop; milliseconds per iteration."""
    samples = []
    for _ in range(PROBE_ITERATIONS):
        start = time.perf_counter()
        total = 0
        for value in range(20000):
            total += value * value % 7
        samples.append(1e3 * (time.perf_counter() - start))
    return samples


def source_digest() -> str:
    """Hash of the library and benchmark sources (names the bundle)."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [
        ROOT / "perfbench" / "workloads.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def spawn(mode: str, args, deadline: float, extra=()) -> dict:
    """Run one child process to completion; its last output line."""
    command = [sys.executable, "-m", "perfbench.workloads", "--mode", mode,
               "--started", repr(time.monotonic()), *extra]
    if args is not None:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} child")
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} child exited {done.returncode}:\n"
                         f"{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    if mode == "train-bundle":
        return {}
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} child printed no result:\n"
                         f"{done.stdout[-2000:]}") from exc


def bundle_path() -> Path:
    """Where the serving bundle for the current sources lives."""
    return (ROOT / ".bench_build" / "perfbench"
            / f"bundle-{source_digest()}.npz")


def ensure_bundle(deadline: float) -> str:
    """Path of the serving bundle, training it first if this checkout
    has none for the current sources."""
    path = bundle_path()
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.parent / f"partial-{os.getpid()}.npz"
        try:
            spawn("train-bundle", None, deadline,
                  ["--bundle", str(partial)])
            os.replace(partial, path)
        finally:
            if partial.exists():
                partial.unlink()
    return str(path)


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def pick(values: dict, specs: dict) -> dict:
    """The metrics ``specs`` names, with their units."""
    missing = sorted(set(specs) - set(values))
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in specs.items()}


def run(args) -> dict:
    started = time.monotonic()
    specs = load_metric_specs()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(ROOT / "perfbench"), quiet=1)
    budget = RUN_BUDGET_S
    extra = []
    if args.workload in SERVING:
        if not bundle_path().exists():
            budget = FIRST_RUN_BUDGET_S
        bundle = ensure_bundle(started + budget)
        extra = ["--bundle", bundle]
    deadline = started + budget
    probe_before = host_probe()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    if args.trace:
        untraced = spawn("measure", args, deadline, extra)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced = spawn("traced", args, deadline,
                       extra + ["--spans-out", str(spans)])
        children = [untraced, traced]
        values = dict(traced["layers"])
        values["bench.trace_overhead_frac"] = (
            traced["cost_s_per_op"] / untraced["cost_s_per_op"] - 1.0)
    else:
        main_child = spawn("measure", args, deadline, extra)
        setups = [main_child["setup_s"]] + [
            spawn("setup", args, deadline, extra)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        children = [main_child]
        values = {**main_child, "setup_s": statistics.median(setups)}

    probe_after = host_probe()
    values["bench.host_probe_ms"] = statistics.median(probe_before
                                                      + probe_after)
    metrics = pick(values, specs["per_layer" if args.trace
                                 else "end_to_end"])
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {**children[0]["host"], "nproc": os.cpu_count(),
                 "machine": platform.machine(), "commit": git_commit()},
        "host_probe_ms": {"before": statistics.median(probe_before),
                          "after": statistics.median(probe_after)},
        "setup_samples_s": None if args.trace else setups,
        "children": [{key: child.get(key) for key in
                      ("setup_s", "named", "determinism", "attempted",
                       "failed", "errors", "peak_rss_mb")}
                     for child in children],
        "wall_s": time.monotonic() - started,
    }
    with open(out_dir / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
