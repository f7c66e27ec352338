"""Benchmark of the wreathspringer CLI: cold one-shot processes, checked byte
for byte against digests recorded in perfbench/expected.json.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Every case runs in a fresh ``python -m wreathspringer`` process, one after
another (a closed loop with one client).  A pass runs every case of the
workload once, in an order drawn from ``--seed``; passes repeat while the
next one still fits in ``--seconds``.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer numbers come from the traced
ones (perfbench/tracer.py).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with run metadata and every case, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CASE_CAP_S = 60.0  # per case; chars (2,4), the largest case, takes ~35 s
RUN_DEADLINE_S = 150.0  # no case starts after this, so a run ends within 180 s
SETUP_SAMPLES = 5  # before each untraced pass, so they spread over the run


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]


def _case(name: str, *argv: str) -> Case:
    return Case(name, argv)


def _grid(prefix: str, argv: tuple[str, ...], sizes) -> list[Case]:
    return [_case(f"{prefix}-{m}-{d}", *argv, "--m", str(m), "--d", str(d)) for m, d in sizes]


# Why each workload exists is in perfbench/README.md.  Both verify scopes
# share one workload so that its runs are long enough to be steady.
# Springer at (2,4), (4,2) and (3,3) takes over 400 s and is left out until
# it is fast.
WORKLOADS: dict[str, list[Case]] = {
    "verify": [
        *_grid("verify-algebra", ("verify", "--scope", "algebra"), [(2, 2), (3, 2), (2, 3)]),
        *_grid("verify-springer", ("verify", "--scope", "springer"), [(2, 2), (2, 3), (3, 2)]),
    ],
    "chars": _grid("tables-chars", ("tables", "--kind", "chars"), [(2, 3), (3, 2), (2, 4)]),
    "enumerate": [
        _case("hasse-json-3-4", "hasse", "--format", "json", "--m", "3", "--d", "4"),
        _case("hasse-dot-2-5", "hasse", "--m", "2", "--d", "5"),
        _case("tables-cells-3-4", "tables", "--kind", "cells", "--m", "3", "--d", "4"),
    ],
}
LARGEST = {
    "verify": "verify-algebra-2-3",
    "chars": "tables-chars-2-4",
    "enumerate": "hasse-json-3-4",
}
# Every command kind at (2,2), for the benchmark's own test.
SELFTEST: list[Case] = [
    _case("verify-algebra-2-2", "verify", "--scope", "algebra", "--m", "2", "--d", "2"),
    _case("verify-springer-2-2", "verify", "--scope", "springer", "--m", "2", "--d", "2"),
    _case("tables-chars-2-2", "tables", "--kind", "chars", "--m", "2", "--d", "2"),
    _case("hasse-json-2-2", "hasse", "--format", "json", "--m", "2", "--d", "2"),
    _case("hasse-dot-2-2", "hasse", "--m", "2", "--d", "2"),
    _case("tables-cells-2-2", "tables", "--kind", "cells", "--m", "2", "--d", "2"),
]

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "largest_case_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# metric -> (span name, self time?).  A span's total time counts only its
# outermost calls; its self time leaves out the time of its child spans.
LAYER_TIMES = {
    "convolution.convolve_s": ("convolution.convolve", False),
    "convolution.verify_relations_self_s": ("convolution.verify_relations", True),
    "matrices.mat_mul_s": ("matrices.mat_mul", False),
    "matrices.kron_s": ("matrices.kron", False),
    "matrices.trace_s": ("matrices.trace", False),
    "reptheory.bimodule_s": ("reptheory.springer_module", False),
    "reptheory.isotypic_character_s": ("reptheory.isotypic_character", False),
    "reptheory.char_of_s": ("reptheory.char_of", False),
    "springer.verify_springer_self_s": ("springer.verify_springer", True),
    "orbits.enumerate_IS_s": ("orbits.enumerate_IS", False),
    "reptheory.clifford_irrep_s": ("reptheory.clifford_irrep", False),
    "reptheory.induce_s": ("reptheory.induce", False),
    "reptheory.representation_self_s": ("reptheory.Representation", True),
    "wreath.elements_s": ("wreath.WreathGroup.elements", False),
    "wreath.word_s": ("wreath.WreathGroup._words", False),
    "wreath.conjugacy_classes_s": ("wreath.WreathGroup.conjugacy_classes", False),
    "wreath.hasse_covers_s": ("wreath.hasse_covers", False),
    "wreath.hasse_json_self_s": ("wreath.hasse_json", True),
    "wreath.hasse_dot_self_s": ("wreath.hasse_dot", True),
    "cli.self_s": ("cli.main", True),
}
LAYER_COUNTS = [
    "convolution.convolve_calls",
    "convolution.basis_pairs",
    "convolution.chaining_pairs",
    "matrices.mat_mul_calls",
    "matrices.mat_mul_mults",
    "matrices.mat_mul_nonzero_mults",
    "springer.labels",
    "reptheory.representations_built",
    "reptheory.matrix_lookups",
    "reptheory.matrix_cache_hits",
]
LAYER_RATIOS = {
    "convolution.chaining_ratio": ("convolution.chaining_pairs", "convolution.basis_pairs"),
    "matrices.mat_mul_nonzero_ratio": ("matrices.mat_mul_nonzero_mults", "matrices.mat_mul_mults"),
    "reptheory.matrix_cache_hit_ratio": ("reptheory.matrix_cache_hits", "reptheory.matrix_lookups"),
}


PER_LAYER = {
    **dict.fromkeys(LAYER_TIMES, "s"),
    **{name: "count" for name in LAYER_COUNTS},
    **{name: "ratio" for name in LAYER_RATIOS},
    "trace.overhead_s": "s",
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def _drain(pipe, digest, keep: bytearray | None) -> None:
    for chunk in iter(lambda: pipe.read(1 << 16), b""):
        digest.update(chunk)
        if keep is not None:
            keep += chunk
    pipe.close()


def run_case(case: Case, expected: dict | None, cap: float, spans_path: str | None = None) -> dict:
    """Run one case in a fresh process and check it.  `spans_path` selects
    the traced form.  A case that outlives `cap` is killed and recorded as
    failed, with its wall time at the cap."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "wreathspringer", *case.argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", spans_path, "--", *case.argv]
    digest = hashlib.sha256()
    kept = bytearray() if spans_path is not None else None
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)

    def kill() -> None:
        with lock:
            if not state["exited"]:
                proc.kill()
                state["killed"] = True

    reader = threading.Thread(target=_drain, args=(proc.stdout, digest, kept))
    timer = threading.Timer(cap, kill)
    reader.start()
    timer.start()
    # Wait without reaping first, so the timer can never signal a reused pid.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()

    record = {
        "case": case.name,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "timed_out": state["killed"],
    }
    if state["killed"]:
        record["wall_s"] = cap
    exit_code, sha = proc.returncode, digest.hexdigest()
    if spans_path is not None and proc.returncode == 0:
        traced = json.loads(kept.decode("utf-8").strip().splitlines()[-1])
        exit_code, sha = traced["exit"], traced["sha256"]
        record["trace"] = {"spans": traced["spans"], "counts": traced["counts"]}
    record["sha256"] = sha
    if expected is not None:
        want = expected[case.name]
        problems = []
        if want["argv"] != list(case.argv):
            problems.append("perfbench/expected.json records other arguments for this case")
        elif state["killed"]:
            problems.append(f"timed out after {cap:g} s")
        elif exit_code != want["exit"]:
            problems.append(f"exit {exit_code}, expected {want['exit']}")
        elif sha != want["sha256"]:
            problems.append("stdout digest mismatch")
        record["ok"] = not problems
        if problems:
            record["problem"] = "; ".join(problems)
    return record


def run_pass(cases: list[Case], expected: dict, deadline: float, traced: bool, tag: str) -> dict:
    start = time.perf_counter()
    records = []
    for case in cases:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            records.append({"case": case.name, "ok": False, "problem": "not started: run deadline", "wall_s": 0.0})
            continue
        spans_path = os.path.join(OUT, f"spans-{tag}-{case.name}.json") if traced else None
        records.append(run_case(case, expected, min(CASE_CAP_S, remaining), spans_path))
    return {"traced": traced, "wall_s": time.perf_counter() - start, "cases": records}


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall times of fresh interpreters that import the package."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wreathspringer"], cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return times


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _pass_metrics(p: dict, largest: str) -> dict:
    done = [r for r in p["cases"] if "cpu_s" in r]
    return {
        "wall_s": p["wall_s"],
        "cpu_s": sum(r["cpu_s"] for r in done),
        "largest_case_s": next((r["wall_s"] for r in p["cases"] if r["case"] == largest), 0.0),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in done), default=0.0),
    }


def _layer_sample(p: dict) -> tuple[dict, dict]:
    """Per-layer times (s) and counts summed over the cases of one traced pass."""
    times = dict.fromkeys(LAYER_TIMES, 0.0)
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    for record in p["cases"]:
        trace = record.get("trace")
        if trace is None:
            continue
        for metric, (span, own) in LAYER_TIMES.items():
            entry = trace["spans"].get(span)
            if entry is not None:
                times[metric] += entry["self_ns" if own else "total_ns"] / 1e9
        for name in LAYER_COUNTS:
            counts[name] += trace["counts"].get(name, 0)
    return times, counts


def measure(name: str, cases: list[Case], seed: int, seconds: float, trace: bool,
            largest: str | None = None, expected: dict | None = None) -> dict:
    """Run passes over `cases` for about `seconds` and reduce them to metrics."""
    if expected is None:
        expected = load_expected()
    os.makedirs(OUT, exist_ok=True)
    rng = random.Random(seed)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": _git_commit(),
    }
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    setup: list[float] = []
    passes = []
    while True:
        round_start = time.perf_counter()
        if not trace:
            setup += measure_setup()
        for traced in (False, True) if trace else (False,):
            order = list(cases)
            rng.shuffle(order)
            passes.append(run_pass(order, expected, deadline, traced, f"{name}-seed{seed}"))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds or now > deadline:
            break
    meta["loadavg_after"] = os.getloadavg()

    records = [r for p in passes for r in p["cases"]]
    failed = sum(1 for r in records if not r["ok"])
    plain = [p for p in passes if not p["traced"]]
    metrics: dict[str, float] = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        samples = [_layer_sample(p) for p in traced]
        for metric in samples[0][0]:
            metrics[metric] = statistics.median(s[0][metric] for s in samples)
        counts = samples[0][1]
        if any(s[1] != counts for s in samples[1:]):
            print("warning: counts differ between traced passes", file=sys.stderr)
        metrics.update(counts)
        for metric, (num, den) in LAYER_RATIOS.items():
            metrics[metric] = counts[num] / counts[den] if counts[den] else 0.0
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
        )
        units = PER_LAYER
    else:
        per_pass = [_pass_metrics(p, largest or cases[0].name) for p in plain]
        for metric in ("wall_s", "cpu_s", "largest_case_s", "peak_rss_mb"):
            metrics[metric] = statistics.median(m[metric] for m in per_pass)
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
    result = {
        "meta": meta,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "attempted": len(records),
        "failed": failed,
        "fail_rate": failed / len(records),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "setup_samples_s": setup, "records": passes}, fh, indent=1)
    for r in records:
        if not r["ok"]:
            print(f"FAILED {name} {r['case']}: {r['problem']}", file=sys.stderr)
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: run metadata, then one metric a line."""
    meta = result["meta"]
    lines = [
        f"# {meta['workload']}: seed {meta['seed']}, python {meta['python']}, nproc {meta['nproc']}, "
        f"commit {meta['commit']}, load {meta['loadavg_before'][0]:.2f} -> {meta['loadavg_after'][0]:.2f}, "
        f"{result['passes']} passes, {result['traced_passes']} traced"
    ]
    for metric, entry in result["metrics"].items():
        lines.append(f"{meta['workload']} {metric} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"{meta['workload']} fail_rate {result['fail_rate']:.6g} 1 ({result['failed']}/{result['attempted']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the wreathspringer CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wreathspringer", "__init__.py")):
        print(f"error: no wreathspringer sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), LARGEST[name])
        results.append(result)
        print("\n".join(report(result)), flush=True)
    prefix = len(names) > 1
    metrics = {
        (f"{r['meta']['workload']}." if prefix else "") + k: v
        for r in results
        for k, v in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
