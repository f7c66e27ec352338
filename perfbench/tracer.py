"""Run one wreathspringer CLI invocation in-process, with spans around the
calls into each module.

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json -- verify --scope algebra --m 2 --d 2

The package is imported, its public functions are replaced by timing
wrappers in every module that looks them up, and ``cli.main(argv)`` runs
with stdout captured.  Spans (name, start, end, parent) stay in memory
until the CLI returns; then they are written to ``--spans`` and one JSON
line goes to stdout: the CLI's exit code, the sha256 of what it printed,
the per-name span times and the counters.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

from wreathspringer import cli, convolution, matrices, orbits, reptheory, springer, wreath
from wreathspringer.combinatorics import perm_compose


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, on_result=None):
        """`fn` with a span named `name` around each call; `on_result`, if
        given, sees every result (for counters)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total time of the outermost spans of that
        name (recursion is not counted twice), and self time, which is each
        span's duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["total_ns"] += end - start
        return out


def _replace_everywhere(original, replacement) -> None:
    """Rebind `original` to `replacement` in every module of the package
    that holds it, so callers that imported the name see the wrapper."""
    for mod in list(sys.modules.values()):
        if mod is None or not mod.__name__.startswith("wreathspringer"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def span(module, attr, name, on_result=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, on_result))

    def count_mat_mul(args, _result):
        a, b = args
        n, k, p = len(a), len(b), len(b[0])
        col_nonzero = [0] * k
        for row in a:
            for j, x in enumerate(row):
                if x:
                    col_nonzero[j] += 1
        counts["matrices.mat_mul_calls"] += 1
        counts["matrices.mat_mul_mults"] += n * k * p
        counts["matrices.mat_mul_nonzero_mults"] += sum(
            col_nonzero[j] * sum(1 for y in b[j] if y) for j in range(k)
        )

    def count_convolve(_args, _result):
        counts["convolution.convolve_calls"] += 1

    def count_labels(_args, report):
        counts["springer.labels"] += len(report.rows)

    span(matrices, "mat_mul", "matrices.mat_mul", count_mat_mul)
    span(matrices, "kron", "matrices.kron")
    span(matrices, "trace", "matrices.trace")
    span(convolution, "convolve", "convolution.convolve", count_convolve)
    span(convolution, "verify_relations", "convolution.verify_relations")
    span(orbits, "enumerate_IS", "orbits.enumerate_IS")
    span(reptheory, "springer_module", "reptheory.springer_module")
    span(reptheory, "isotypic_character", "reptheory.isotypic_character")
    span(reptheory, "char_of", "reptheory.char_of")
    span(reptheory, "clifford_irrep", "reptheory.clifford_irrep")
    span(reptheory, "induce", "reptheory.induce")
    span(springer, "verify_springer", "springer.verify_springer", count_labels)
    span(wreath, "hasse_covers", "wreath.hasse_covers")
    span(wreath, "hasse_json", "wreath.hasse_json")
    span(wreath, "hasse_dot", "wreath.hasse_dot")

    basis = convolution.convolve_basis

    def convolve_basis(a, b):
        counts["convolution.basis_pairs"] += 1
        if perm_compose(a.tau, a.w.top) == b.tau:
            counts["convolution.chaining_pairs"] += 1
        return basis(a, b)

    _replace_everywhere(basis, convolve_basis)

    rep = reptheory.Representation

    def count_built(_args, _result):
        counts["reptheory.representations_built"] += 1

    rep.__init__ = tracer.wrap("reptheory.Representation", rep.__init__, count_built)
    lookup = rep.matrix

    def matrix(self, x):
        counts["reptheory.matrix_lookups"] += 1
        if x in self._cache:
            counts["reptheory.matrix_cache_hits"] += 1
        return lookup(self, x)

    rep.matrix = matrix

    for attr, name in (
        ("elements", "wreath.WreathGroup.elements"),
        ("_words", "wreath.WreathGroup._words"),
        ("conjugacy_classes", "wreath.WreathGroup.conjugacy_classes"),
    ):
        prop = functools.cached_property(tracer.wrap(name, vars(wreath.WreathGroup)[attr].func))
        prop.__set_name__(wreath.WreathGroup, attr)
        setattr(wreath.WreathGroup, attr, prop)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file to write the spans to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    run = tracer.wrap("cli.main", cli.main)
    with redirect_stdout(captured):
        code = run(cli_args)
    data = captured.getvalue().encode("utf-8")

    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "argv": cli_args,
                "names": names,
                "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans],
            },
            fh,
            separators=(",", ":"),
        )
    print(
        json.dumps(
            {
                "exit": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "spans": tracer.summary(),
                "counts": dict(sorted(tracer.counts.items())),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
