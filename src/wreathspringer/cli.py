"""Command-line front end.

Four subcommands: ``hasse`` (order diagram emission), ``order`` (a single
comparison with its factorwise trace), ``verify`` (the machine checks:
algebra relations, the orbit/isotypic correspondence, the dimension
property), and ``tables`` (index sets, orbits, characters, and the type
B/D specializations).

Exit codes: 0 success / all checks pass, 1 a mathematical check failed,
2 usage or bounds error, 141 (128 + SIGPIPE) stdout closed by its reader,
as when the output is piped into ``head``.  Data goes to stdout,
diagnostics to stderr.
All fractions are serialized as strings so no value is ever coerced to a
float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from itertools import repeat
from json.encoder import encode_basestring_ascii

# every other module is reached as an attribute of the package, which loads
# it on first use (`__init__.__getattr__`), so a command loads only what it
# uses; wreath, and with it combinatorics, serves every command but
# `tables --kind orbits`
import wreathspringer

from .combinatorics import bruhat_leq_typeA, format_partition, partitions_of
from .wreath import (
    BoundExceededError,
    Check,
    CheckFailed,
    WreathGroup,
    cell_statistics,
    class_label,
    dimension_polynomial_str,
    hasse_dot,
    hasse_json,
    refuse_above,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a C tool killed by it


def _one_line(p) -> str:
    return "[" + ",".join(str(i + 1) for i in p) + "]"


def _render_table(header: list[str], rows: Iterable[list[str]], fmt: str) -> str:
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)
    raise ValueError(f"unknown table format {fmt!r}")


def _json_text(value, indent: str = "") -> str:
    """The text of ``json.dumps(value, indent=2)`` for str-keyed dicts,
    lists, str, int and bool, written directly: with ``indent`` set, that
    call runs the pure-Python ``json.encoder._make_iterencode`` instead of
    the C encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        body = sep.join([_json_text(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def cmd_hasse(args) -> int:
    group = WreathGroup(args.m, args.d)
    # sys.stdout is looked up on each call, so a redirected stdout gets the diagram
    if args.format == "json":
        hasse_json(group, sys.stdout)
    else:
        hasse_dot(group, sys.stdout)
    return EXIT_OK


def cmd_order(args) -> int:
    group = WreathGroup(args.m, args.d)
    x = group.parse_word(args.x)
    y = group.parse_word(args.y)
    # x <= y when the tops are equal and every factor is below (`bruhat_leq_wreath`),
    # read off the lines printed here, so each factor is compared once
    result = x.top == y.top
    print(f"top: {_one_line(x.top)} vs {_one_line(y.top)} -> {'equal' if result else 'different'}")
    for i, (xf, yf) in enumerate(zip(x.factors, y.factors), start=1):
        ok = bruhat_leq_typeA(xf, yf)
        result = result and ok
        print(f"factor {i}: {_one_line(xf)} <= {_one_line(yf)} -> {str(ok).lower()}")
    print(f"result: {str(result).lower()}")
    return EXIT_OK


def _dimension_checks(group: WreathGroup) -> tuple[Check]:
    # the partitions of m are listed under Sigma_m's bound, as `specht_rep`
    # lists its tableaux, and then the p(m)^d profiles under the same bound
    WreathGroup(1, group.m).check_bound()
    refuse_above("profile count", repeat(len(partitions_of(group.m)), group.d))
    profiles = wreathspringer.orbits.all_profiles(group.m, group.d)
    ok = all(map(wreathspringer.orbits.check_dimension_property, profiles))
    return (Check("dimension_property", "pass" if ok else "fail", len(profiles)),)


# the checks of each scope of `verify`, in the order `all` runs them; each
# producer refuses the sizes it cannot check before doing any work, and looks
# its library function up when called, so a rebound module attribute is seen
SCOPES = {
    "algebra": lambda group: wreathspringer.convolution.verify_relations(group),
    "springer": lambda group: (wreathspringer.springer.verify_springer(group),),
    "dimensions": _dimension_checks,
}


def cmd_verify(args) -> int:
    group = WreathGroup(args.m, args.d)
    producers = SCOPES.values() if args.scope == "all" else [SCOPES[args.scope]]
    checks = [check for produce in producers for check in produce(group)]
    status = "fail" if any(c.failed for c in checks) else "pass"
    printed = [c.to_dict() for c in checks]
    print(_json_text({"m": args.m, "d": args.d, "scope": args.scope, "checks": printed, "status": status}))
    return EXIT_OK if status == "pass" else EXIT_CHECK_FAILED


# the md/csv cell of a value in a JSON row: a list joins with commas, a dict
# is its JSON text, anything else is its str (the encoder writes what
# json.dumps writes, without json.dumps' per-call keyword handling)
CELL_TEXT = {list: ",".join, dict: json.JSONEncoder().encode}


def _row_kind(key: str, records: list[dict]) -> tuple:
    """A row kind's payload ends with its list of row objects under `key`;
    md and csv print the keys of a row as the header, and its values as
    cells, row by row (a generator, which the writers consume)."""
    cells = ([CELL_TEXT.get(type(v), str)(v) for v in record.values()] for record in records)
    return {key: records}, list(records[0]), cells


def _partitions(entries) -> str:
    return ",".join(map(format_partition, entries))


def _irreps(m: int, d: int) -> tuple:
    group = WreathGroup(m, d)
    group.check_bound()
    irrep = wreathspringer.reptheory.clifford_irrep
    labels = wreathspringer.orbits.enumerate_IC(m, d)
    return _row_kind("irreps", [{"label": str(label), "dim": irrep(group, label).dim} for label in labels])


def _springer(m: int, d: int) -> tuple:
    # one label names both sides, so the psi column (the component-group
    # irreducible of the orbit) repeats the clifford column
    return _row_kind("rows", [
        {"clifford": str(label), "orbit": f"({_partitions(label.orbit)})", "psi": str(label)}
        for label in wreathspringer.orbits.enumerate_IC(m, d)
    ])


def _typeB(d: int) -> tuple:
    return _row_kind("rows", [
        {"bipartition": _partitions(row["bipartition"]), "clifford": str(row["clifford"]),
         "orbit": f"({_partitions(row['clifford'].orbit)})"}
        for row in wreathspringer.springer.typeB_table(d)
    ])


def _typeD(d: int) -> tuple:
    return _row_kind("rows", [
        {"pair": _partitions(row["pair"]), "sign": row["sign"] or "", "psi": format_partition(row["psi"])}
        for row in wreathspringer.springer.typeD_table(d)
    ])


def _orbits(m: int, d: int) -> tuple:
    return _row_kind("orbits", wreathspringer.orbits.orbit_report(m, d)["orbits"])


def _chars(m: int, d: int) -> tuple:
    group = WreathGroup(m, d)
    group.check_bound()
    class_words = [group.word(rep) for rep in group.class_reps]
    # each class's cycles (r, c): its label in the one block of Sigma_d,
    # less the block entry; every value is read off the rule, no module
    cycles = [tuple((r, c) for _, r, c in class_label(rep, (0,) * d)) for rep in group.class_reps]
    character = wreathspringer.orbits.wreath_character
    table = [
        (str(label), [str(character(label.entries, rho)) for rho in cycles])
        for label in wreathspringer.orbits.enumerate_IC(m, d)
    ]
    rows = [{"label": label, "values": values} for label, values in table]
    payload = {"classes": class_words, "classSizes": list(group.class_sizes), "rows": rows}
    return payload, ["label", *class_words], ([label, *values] for label, values in table)


def _cells(m: int, d: int) -> tuple:
    count, dist = cell_statistics(WreathGroup(m, d))
    dimensions = {str(k): v for k, v in dist.items()}
    payload = {"cellCount": count, "dimensionCounts": dimensions, "polynomial": dimension_polynomial_str(dist)}
    return payload, ["dimension", "cells"], ([str(k), str(v)] for k, v in dist.items())


def _hu(m: int) -> tuple:
    # the orbit's pair, then the Sigma_2 sign of an equal pair; a distinct
    # pair's first value is (1,), which has no sign
    orbits = wreathspringer.orbits
    labels = [
        f"[{_partitions(s.orbit)}]" + orbits.SIGMA2_SIGNS.get(s.values[0], "")
        for s in orbits.enumerate_IS(m, 2)
    ]
    return {"labels": labels}, ["label"], ([label] for label in labels)


# each table kind: the sizes it reads, which lead its JSON payload, and its
# producer, which refuses what it cannot build and then gives the payload's
# other keys, the md/csv header and the rows
KINDS = {
    "irreps": (("m", "d"), _irreps),
    "springer": (("m", "d"), _springer),
    "typeB": (("d",), _typeB),
    "typeD": (("d",), _typeD),
    "orbits": (("m", "d"), _orbits),
    "chars": (("m", "d"), _chars),
    "cells": (("m", "d"), _cells),
    "hu": (("m",), _hu),
}


def cmd_tables(args) -> int:
    names, produce = KINDS[args.kind]
    sizes = {name: getattr(args, name) for name in names}
    if min(sizes.values()) < 1:
        raise ValueError("m and d must be positive")
    payload, header, rows = produce(*sizes.values())
    print(_json_text({**sizes, **payload}) if args.format == "json" else _render_table(header, rows, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathspringer",
        description="Exact wreath-product combinatorics: order diagrams, "
        "relation checks, correspondence verification, and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # hasse, order and verify each need both sizes
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--m", type=int, required=True)
    sizes.add_argument("--d", type=int, required=True)

    p_hasse = sub.add_parser("hasse", parents=[sizes], help="emit the order diagram")
    p_hasse.add_argument("--format", choices=["dot", "json"], default="dot")
    p_hasse.set_defaults(fn=cmd_hasse)

    p_order = sub.add_parser("order", parents=[sizes], help="compare two elements")
    p_order.add_argument("--x", required=True, help="element word, e.g. 's1^1 t1'")
    p_order.add_argument("--y", required=True)
    p_order.set_defaults(fn=cmd_order)

    p_verify = sub.add_parser("verify", parents=[sizes], help="run the machine checks")
    p_verify.add_argument("--scope", choices=[*SCOPES, "all"], default="all")
    p_verify.set_defaults(fn=cmd_verify)

    p_tables = sub.add_parser("tables", help="emit a table")
    p_tables.add_argument("--kind", choices=list(KINDS), required=True)
    p_tables.add_argument("--m", type=int, default=2)
    p_tables.add_argument("--d", type=int, default=2)
    p_tables.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p_tables.set_defaults(fn=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so that the
        # interpreter's final flush cannot raise again (Python docs, signal
        # module, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
