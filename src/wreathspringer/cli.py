"""Command-line front end.

Four subcommands: ``hasse`` (order diagram emission), ``order`` (a single
comparison with its factorwise trace), ``verify`` (the machine checks:
algebra relations, the orbit/isotypic correspondence, the dimension
property), and ``tables`` (index sets, orbits, characters, and the type
B/D specializations).

Exit codes: 0 success / all checks pass, 1 a mathematical check failed,
2 usage or bounds error.  Data goes to stdout, diagnostics to stderr.
All fractions are serialized as strings so no value is ever coerced to a
float.
"""

from __future__ import annotations

import argparse
import json
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
    lists, str, int and bool, written directly: with ``indent`` that call
    runs CPython's pure-Python encoder (see `wreath.hasse_json`)."""
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
    if args.format == "json":
        print(hasse_json(group))
    else:
        print(hasse_dot(group))
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

        checks.extend(verify_relations(group).to_dict()["checks"])
    if args.scope in ("springer", "all"):
        from .springer import verify_springer

        report = verify_springer(group)
        detail = report.to_dict()
        checks.append(
            {
                "name": "springer_correspondence",
                "status": "pass" if report.all_pass else "fail",
                "instances": len(report.rows),
                "counts": detail["counts"],
            }
        )
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


# the size arguments each table kind reads; every other kind reads m and d
TABLE_SIZES = {"typeB": ("d",), "typeD": ("d",), "hu": ("m",)}


def cmd_tables(args) -> int:
    fmt = args.format
    if any(getattr(args, name) < 1 for name in TABLE_SIZES.get(args.kind, ("m", "d"))):
        raise ValueError("m and d must be positive")
    if args.kind == "irreps":
        from .reptheory import clifford_irrep, enumerate_IC

        group = WreathGroup(args.m, args.d)
        group.check_bound()
        rows = [
            [str(label), str(clifford_irrep(group, label).dim)]
            for label in enumerate_IC(args.m, args.d)
        ]
        header = ["label", "dim"]
        payload = {
            "m": args.m,
            "d": args.d,
            "irreps": [{"label": r[0], "dim": int(r[1])} for r in rows],
        }
    elif args.kind == "springer":
        from .reptheory import enumerate_IC
        from .springer import psi

        rows = []
        for label in enumerate_IC(args.m, args.d):
            s = psi(label)
            rows.append(
                [
                    str(label),
                    "(" + ",".join(format_partition(e) for e in s.orbit) + ")",
                    str(s.psi),
                ]
            )
        header = ["clifford", "orbit", "psi"]
        payload = {
            "m": args.m,
            "d": args.d,
            "rows": [dict(zip(header, r)) for r in rows],
        }
    elif args.kind == "typeB":
        from .springer import typeB_table

        rows = [
            [
                format_partition(row["bipartition"][0]) + "," + format_partition(row["bipartition"][1]),
                str(row["clifford"]),
                "(" + ",".join(format_partition(e) for e in row["springer"].orbit) + ")",
            ]
            for row in typeB_table(args.d)
        ]
        header = ["bipartition", "clifford", "orbit"]
        payload = {"d": args.d, "rows": [dict(zip(header, r)) for r in rows]}
    elif args.kind == "typeD":
        from .springer import typeD_table

        rows = [
            [
                format_partition(row["pair"][0]) + "," + format_partition(row["pair"][1]),
                row["sign"] or "",
                format_partition(row["psi"]),
            ]
            for row in typeD_table(args.d)
        ]
        header = ["pair", "sign", "psi"]
        payload = {"d": args.d, "rows": [dict(zip(header, r)) for r in rows]}
    elif args.kind == "orbits":
        from .orbits import orbit_report

        payload = orbit_report(args.m, args.d)
        # a generator: only the md and csv formats read the rows
        rows = (
            [
                ",".join(r["label"]),
                json.dumps(r["gamma"]),
                str(r["componentGroupOrder"]),
                str(r["orbitDim"]),
                str(r["fiberDim"]),
            ]
            for r in payload["orbits"]
        )
        header = ["label", "gamma", "componentGroupOrder", "orbitDim", "fiberDim"]
    elif args.kind == "chars":
        from .reptheory import character_table

        group = WreathGroup(args.m, args.d)
        class_words = [group.word(rep) for rep in group.class_reps]
        header = ["label"] + class_words
        table = [(str(label), [str(v) for v in chi.values]) for label, _, chi in character_table(group)]
        rows = [[label, *values] for label, values in table]
        payload = {
            "m": args.m,
            "d": args.d,
            "classes": class_words,
            "classSizes": list(group.class_sizes),
            "rows": [{"label": label, "values": values} for label, values in table],
        }
    elif args.kind == "cells":
        group = WreathGroup(args.m, args.d)
        count, dist = cell_statistics(group)
        payload = {
            "m": args.m,
            "d": args.d,
            "cellCount": count,
            "dimensionCounts": {str(k): v for k, v in dist.items()},
            "polynomial": dimension_polynomial_str(dist),
        }
        header = ["dimension", "cells"]
        rows = [[str(k), str(v)] for k, v in dist.items()]
    elif args.kind == "hu":
        from .springer import hu_index

        labels = hu_index(args.m)
        header = ["label"]
        rows = [[str(label)] for label in labels]
        payload = {"m": args.m, "labels": [str(label) for label in labels]}
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(args.kind)

    if fmt == "json":
        print(_json_text(payload))
    else:
        print(_render_table(header, rows, fmt))
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
    sys.exit(main())


if __name__ == "__main__":
    console_main()
