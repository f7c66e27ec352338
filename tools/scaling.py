"""Cold, alternating wall-time and peak-memory pairs of two revisions.

    python tools/scaling.py OLD NEW
    python tools/scaling.py --report

Each revision's ``src`` is extracted with ``git archive REV src`` into a
temporary directory, and every command of `GRID` runs there as a fresh
``python -m wreathspringer`` child with ``PYTHONPATH`` at that ``src`` and
``PYTHONDONTWRITEBYTECODE=1``, so every run compiles the package as a
cold command does.  Per run it stores the wall time (or ``"timeout"`` past
`TIMEOUT_S`, the row kept), the child's peak RSS from `os.wait4`, the exit
code and the sha256 of stdout.  The two revisions alternate run by run for
`RUNS` rounds, the one that goes first swapping each round, and every run
is kept.  A revision is anything ``git archive`` takes: a commit, or the
tree ``git write-tree`` gives for the staged working tree; each side
records its ``src`` tree id, which equals ``git rev-parse COMMIT:src`` of
any commit with that source.  The record is appended to the repository's
``BENCH_scaling.json``.  ``--report`` prints, per row of each record, the
median wall times and whether the new median is within the old side's
runs: above every one, below every one, or unresolved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO, "BENCH_scaling.json")
TIMEOUT_S = 300.0
RUNS = 5
OVERRIDE = {"WREATHSPRINGER_MAX_ELEMENTS": "700000"}

# the commands of ROADMAP.md's Recent table, the last three under the override
GRID = [
    ("verify --scope springer --m 2 --d 5", {}),
    ("verify --scope springer --m 2 --d 6", {}),
    ("verify --scope springer --m 5 --d 2", {}),
    ("verify --scope springer --m 3 --d 4", {}),
    ("tables --kind chars --m 3 --d 4", {}),
    ("hasse --format json --m 3 --d 4", {}),
    ("verify --scope algebra --m 2 --d 3", {}),
    ("verify --scope algebra --m 2 --d 4", {}),
    ("verify --scope algebra --m 2 --d 6", {}),
    ("tables --kind hu --m 20", {}),
    ("tables --kind typeD --d 30", {}),
    ("verify --scope springer --m 4 --d 3", OVERRIDE),
    ("tables --kind chars --m 4 --d 3", OVERRIDE),
    ("hasse --format json --m 4 --d 3", OVERRIDE),
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True, check=True).stdout.strip()


def extract(rev: str, into: str) -> dict:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    commit = git("rev-parse", rev) if git("cat-file", "-t", rev) == "commit" else None
    return {"rev": rev, "commit": commit, "src_tree": git("rev-parse", f"{rev}:src")}


# A child's peak RSS starts at the RSS of the process that spawned it, so
# each command is spawned by this small launcher rather than by the script
# itself.  It times the command, kills it at the cap, and writes
# "wall maxrss_kib exit timed_out" to its stderr; the command's own stderr
# goes to /dev/null.
LAUNCHER = """
import os, signal, sys, time
cap = float(sys.argv[1])
start = time.perf_counter()
devnull = [(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ, file_actions=devnull)
timed_out = []


def stop(*_):
    timed_out.append(1)
    os.kill(pid, signal.SIGKILL)


signal.signal(signal.SIGALRM, stop)
signal.setitimer(signal.ITIMER_REAL, cap)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
sys.stderr.write(f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)} {len(timed_out)}")
"""


def run_once(checkout: str, command: str, extra_env: dict) -> dict:
    """One cold child: wall time, peak RSS (MiB), exit code, stdout digest."""
    env = {k: v for k, v in os.environ.items() if k not in OVERRIDE}
    env.update(extra_env, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    digest = hashlib.sha256()
    launcher = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, str(TIMEOUT_S), sys.executable, "-m", "wreathspringer", *command.split()],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for chunk in iter(lambda: launcher.stdout.read(1 << 16), b""):
        digest.update(chunk)
    wall, rss_kib, code, timed_out = launcher.communicate()[1].split()
    return {
        "wall_s": "timeout" if int(timed_out) else round(float(wall), 4),
        "peak_rss_mib": round(int(rss_kib) / 1024, 1),
        "exit": int(code),
        "stdout_sha256": digest.hexdigest(),
    }


def measure(old: str, new: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, rev in (("old", old), ("new", new)):
            os.mkdir(os.path.join(tmp, side))
            sides[side] = extract(rev, os.path.join(tmp, side))
        rows = [{"command": c, "env": e, "runs": {"old": [], "new": []}} for c, e in GRID]
        for r in range(RUNS):
            for row in rows:
                for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
                    result = run_once(os.path.join(tmp, side), row["command"], row["env"])
                    row["runs"][side].append(result)
                    print(r, side, row["command"], result, file=sys.stderr, flush=True)
    return {
        "old": sides["old"],
        "new": sides["new"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs_per_side": RUNS,
        "timeout_s": TIMEOUT_S,
        "rows": rows,
    }


def report(records: list) -> None:
    for record in records:
        print(f"{record['old']['rev']} -> {record['new']['rev']}")
        for row in record["rows"]:
            walls = {s: [x["wall_s"] for x in row["runs"][s]] for s in ("old", "new")}
            if any("timeout" in w for w in walls.values()):
                print(f"  {row['command']}: timeout")
                continue
            old, new = (statistics.median(walls[s]) for s in ("old", "new"))
            if new > max(walls["old"]):
                verdict = "slower: above every old run"
            elif new < min(walls["old"]):
                verdict = "faster: below every old run"
            else:
                verdict = "unresolved: within the old runs' spread"
            print(f"  {row['command']}: median {old:.3f} -> {new:.3f} s, {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args(argv)
    data = {"records": []}
    if os.path.exists(BENCH):
        with open(BENCH, encoding="utf-8") as fh:
            data = json.load(fh)
    if args.report:
        report(data["records"])
        return 0
    if not (args.old and args.new):
        parser.error("give two revisions, or --report")
    data["records"].append(measure(args.old, args.new))
    with open(BENCH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
