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
from json.encoder import encode_basestring_ascii

# wreath, and with it combinatorics, serves every command but `tables --kind
# orbits`; the other modules are imported inside the commands that use them,
# so a command loads only what it needs
from .combinatorics import bruhat_leq_typeA, format_partition
from .wreath import (
    BoundExceededError,
    CheckFailed,
    WreathGroup,
    bruhat_leq_wreath,
    cell_statistics,
    dimension_polynomial_str,
    hasse_dot,
    hasse_json,
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
    tops_equal = x.top == y.top
    print(f"top: {_one_line(x.top)} vs {_one_line(y.top)} -> {'equal' if tops_equal else 'different'}")
    for i, (xf, yf) in enumerate(zip(x.factors, y.factors), start=1):
        ok = bruhat_leq_typeA(xf, yf)
        print(f"factor {i}: {_one_line(xf)} <= {_one_line(yf)} -> {str(ok).lower()}")
    print(f"result: {str(bruhat_leq_wreath(x, y)).lower()}")
    return EXIT_OK


def cmd_verify(args) -> int:
    group = WreathGroup(args.m, args.d)
    group.check_bound()
    checks = []
    if args.scope in ("algebra", "all"):
        from .convolution import verify_relations

        checks.extend(c.to_dict() for c in verify_relations(group).checks)
    if args.scope in ("springer", "all"):
        from .springer import verify_springer

        checks.append(verify_springer(group).to_dict())
    if args.scope in ("dimensions", "all"):
        from .orbits import all_profiles, check_dimension_property

        profiles = all_profiles(group.m, group.d)
        bad = [p for p in profiles if not check_dimension_property(p)]
        checks.append(
            {
                "name": "dimension_property",
                "status": "fail" if bad else "pass",
                "instances": len(profiles),
            }
        )
    status = "pass" if all(c["status"] != "fail" for c in checks) else "fail"
    print(_json_text({"m": args.m, "d": args.d, "scope": args.scope, "checks": checks, "status": status}))
    return EXIT_OK if status == "pass" else EXIT_CHECK_FAILED


# the size arguments each table kind reads, and so the leading keys of its
# JSON payload; every other kind reads m and d
TABLE_SIZES = {"typeB": ("d",), "typeD": ("d",), "hu": ("m",)}


# the md/csv cell of a value in a JSON row: a list joins with commas, a dict
# is its JSON text, anything else is its str (the encoder writes what
# json.dumps writes, without json.dumps' per-call keyword handling)
CELL_TEXT = {list: ",".join, dict: json.JSONEncoder().encode}


def _orbit_str(orbit) -> str:
    return "(" + ",".join(format_partition(e) for e in orbit) + ")"


def cmd_tables(args) -> int:
    sizes = TABLE_SIZES.get(args.kind, ("m", "d"))
    if any(getattr(args, name) < 1 for name in sizes):
        raise ValueError("m and d must be positive")
    payload = {name: getattr(args, name) for name in sizes}
    # the row kinds (irreps, springer, typeB, typeD, orbits) end their
    # payload with a list of row objects, which md and csv print; the other
    # kinds set their own header and rows
    header = rows = None
    if args.kind == "irreps":
        from .orbits import enumerate_IC
        from .reptheory import clifford_irrep

        group = WreathGroup(args.m, args.d)
        group.check_bound()
        payload["irreps"] = [
            {"label": str(label), "dim": clifford_irrep(group, label).dim}
            for label in enumerate_IC(args.m, args.d)
        ]
    elif args.kind == "springer":
        from .orbits import enumerate_IC
        from .springer import psi

        labels = enumerate_IC(args.m, args.d)
        payload["rows"] = [
            {"clifford": str(label), "orbit": _orbit_str(s.orbit), "psi": str(s.psi)}
            for label, s in zip(labels, map(psi, labels))
        ]
    elif args.kind == "typeB":
        from .springer import typeB_table

        payload["rows"] = [
            {
                "bipartition": ",".join(format_partition(p) for p in row["bipartition"]),
                "clifford": str(row["clifford"]),
                "orbit": _orbit_str(row["springer"].orbit),
            }
            for row in typeB_table(args.d)
        ]
    elif args.kind == "typeD":
        from .springer import typeD_table

        payload["rows"] = [
            {
                "pair": ",".join(format_partition(p) for p in row["pair"]),
                "sign": row["sign"] or "",
                "psi": format_partition(row["psi"]),
            }
            for row in typeD_table(args.d)
        ]
    elif args.kind == "orbits":
        from .orbits import orbit_report

        payload["orbits"] = orbit_report(args.m, args.d)["orbits"]
    elif args.kind == "chars":
        from .reptheory import character_table

        group = WreathGroup(args.m, args.d)
        class_words = [group.word(rep) for rep in group.class_reps]
        header = ["label"] + class_words
        table = [(str(label), [str(v) for v in chi.values]) for label, _, chi in character_table(group)]
        rows = [[label, *values] for label, values in table]
        payload["classes"] = class_words
        payload["classSizes"] = list(group.class_sizes)
        payload["rows"] = [{"label": label, "values": values} for label, values in table]
    elif args.kind == "cells":
        group = WreathGroup(args.m, args.d)
        count, dist = cell_statistics(group)
        payload["cellCount"] = count
        payload["dimensionCounts"] = {str(k): v for k, v in dist.items()}
        payload["polynomial"] = dimension_polynomial_str(dist)
        header = ["dimension", "cells"]
        rows = [[str(k), str(v)] for k, v in dist.items()]
    elif args.kind == "hu":
        from .springer import hu_index

        payload["labels"] = [str(label) for label in hu_index(args.m)]
        header = ["label"]
        rows = [[label] for label in payload["labels"]]
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(args.kind)

    if args.format == "json":
        print(_json_text(payload))
        return EXIT_OK
    if header is None:
        *_, records = payload.values()
        header = list(records[0])
        # a generator: the md and csv writers consume it row by row
        rows = ([CELL_TEXT.get(type(v), str)(v) for v in record.values()] for record in records)
    print(_render_table(header, rows, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathspringer",
        description="Exact wreath-product combinatorics: order diagrams, "
        "relation checks, correspondence verification, and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hasse = sub.add_parser("hasse", help="emit the order diagram")
    p_hasse.add_argument("--m", type=int, required=True)
    p_hasse.add_argument("--d", type=int, required=True)
    p_hasse.add_argument("--format", choices=["dot", "json"], default="dot")
    p_hasse.set_defaults(fn=cmd_hasse)

    p_order = sub.add_parser("order", help="compare two elements")
    p_order.add_argument("--m", type=int, required=True)
    p_order.add_argument("--d", type=int, required=True)
    p_order.add_argument("--x", required=True, help="element word, e.g. 's1^1 t1'")
    p_order.add_argument("--y", required=True)
    p_order.set_defaults(fn=cmd_order)

    p_verify = sub.add_parser("verify", help="run the machine checks")
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument(
        "--scope", choices=["algebra", "springer", "dimensions", "all"], default="all"
    )
    p_verify.set_defaults(fn=cmd_verify)

    p_tables = sub.add_parser("tables", help="emit a table")
    p_tables.add_argument(
        "--kind",
        choices=["irreps", "springer", "typeB", "typeD", "orbits", "chars", "cells", "hu"],
        required=True,
    )
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
