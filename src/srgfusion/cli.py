"""Command-line interface.

Subcommands:

    table       print the rank-3 character table for the given input
    scan        list all nontrivial fusion partitions of the tensor square
    wreath      wreath-product fusion classification (and table, with input)
    classify    symbolic classification of all 4140 partitions
    verify      matrix-level check of one partition on a named graph
    lattice     DOT Hasse diagram of the scan results
    crosscheck  criterion-versus-matrix comparison on a named graph

Input sources (exactly one per invocation where required):

    --n N --k K --mu MU --nu NU   strongly regular graph parameters
    --eigen k,l,r,s               exact table data, entries rational
    --graph NAME                  a named construction (see oracle module)

Options:

    --partition P       partition of 2..9, e.g. 23|47|5689: required by
                        verify; crosscheck checks only P; other commands
                        refuse it
    --orientation 1|2   wreath-product orientation (default 1)
    --format FMT        text (default) or json; lattice always prints dot
    --table-algebra     allow non-integral multiplicities: parameter and
                        graph inputs warn about them, --eigen is silent

Exit codes: 0 success, 1 usage error, 2 a verification mismatch was found.

Each ``cmd_*(args)`` only builds: it returns ``(doc, lines, code)``, the
JSON document (None for lattice), the text or DOT lines and the exit code.
``main`` alone renders: it adds ``tool_version`` to the document, writes
JSON or the lines as ``--format`` says, and reports usage errors and, as
``warning: <message>`` lines on stderr, the warnings a command raised.  A new
command is a builder plus its ``_COMMANDS`` entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

from . import __version__
from .classifier import classify_all, classify_wreath
from .exact import value_to_json
from .fusion import bm_check, fused_table, scan_all
from .partitions import coarsenings, hasse_edges, parse
from .products import tensor_square_table, wreath_partition, wreath_table
from .scheme import (
    CharTable,
    SrgParams,
    char_table,
    eigen_from_params,
    eigen_from_values,
    feasibility,
)


class UsageError(ValueError):
    pass


def _eigen_from_args(args, required=True):
    """The input's eigen data and its echo for JSON output, or (None, None)
    when no source is given and ``required`` is false."""
    sources = [
        args.n is not None or args.k is not None,
        args.eigen is not None,
        args.graph is not None,
    ]
    if sum(bool(s) for s in sources) != 1:
        if not required and not any(sources):
            return None, None
        raise UsageError("give exactly one input source: --n/--k/--mu/--nu, "
                         "--eigen, or --graph")
    integral = not args.table_algebra
    if args.eigen is not None:
        parts = args.eigen.split(",")
        if len(parts) != 4:
            raise UsageError("--eigen needs four comma-separated values k,l,r,s")
        try:
            k, l, r, s = (Fraction(x) for x in parts)
        except ZeroDivisionError:
            raise UsageError(f"--eigen entry with zero denominator in "
                             f"{args.eigen!r}") from None
        return (eigen_from_values(k, l, r, s, integral=integral),
                {"eigen": args.eigen})
    if args.graph is not None:
        # the oracle, and NumPy with it, loads only for a named graph
        from .oracle import build_graph, srg_params
        return (eigen_from_params(srg_params(build_graph(args.graph)),
                                  integral=integral),
                {"graph": args.graph})
    echo = {"n": args.n, "k": args.k, "mu": args.mu, "nu": args.nu}
    if None in echo.values():
        raise UsageError("all of --n, --k, --mu, --nu are required together")
    return eigen_from_params(SrgParams(**echo), integral=integral), echo


def _table_lines(table: CharTable) -> list[str]:
    width = max(len(str(v)) for row in table.rows for v in row)
    width = max(width, *(len(c) for c in table.col_labels))
    head = " ".join(f"{c:>{width}}" for c in table.col_labels)
    label_w = max(len(r) for r in table.row_labels)
    lines = [f"{'':{label_w}}  {head}  mult"]
    for label, row, mult in zip(table.row_labels, table.rows, table.mults):
        cells = " ".join(f"{str(v):>{width}}" for v in row)
        lines.append(f"{label:{label_w}}  {cells}  {mult}")
    return lines


def _scan(args):
    """Echo, tensor-square table, positive verdicts and their Hasse edges."""
    eigen, echo = _eigen_from_args(args)
    table = tensor_square_table(char_table(eigen))
    verdicts = scan_all(table)
    return echo, table, verdicts, hasse_edges([v.partition for v in verdicts])


def cmd_table(args):
    eigen, echo = _eigen_from_args(args)
    table = char_table(eigen)
    rep = feasibility(eigen)
    kind = rep.imprimitive_kind
    doc = {
        "input": echo,
        "table": table.to_json(),
        "feasibility": {
            "primitive": rep.primitive,
            "imprimitive_kind": kind,
            "violations": [{"item": item, "value": value_to_json(value)}
                           for item, value in rep.violations],
        },
    }
    lines = _table_lines(table)
    lines.append(f"primitive: {rep.primitive}"
                 + (f" (imprimitive case {kind})" if kind != "none" else ""))
    lines += [f"violation: {item} = {value}" for item, value in rep.violations]
    return doc, lines, 0


def cmd_scan(args):
    echo, table, verdicts, edges = _scan(args)
    entries = []
    for v in verdicts:
        ft = fused_table(table, v.partition)
        entries.append({
            "partition": str(v.partition),
            "rank": v.fused_rank,
            "fused_valencies": [value_to_json(x) for x in ft.valency_row()],
            "fused_multiplicities": [value_to_json(x) for x in ft.mults],
        })
    doc = {
        "input": echo,
        "count": len(entries),
        "partitions": entries,
        "lattice_edges": [(str(a), str(b)) for a, b in edges],
    }
    lines = [f"{len(entries)} nontrivial fusion partitions"]
    lines += [f"  rank {v.fused_rank}: {v.partition}" for v in verdicts]
    return doc, lines, 0


def cmd_lattice(args):
    _, _, verdicts, edges = _scan(args)
    by_rank: dict[int, list[str]] = {}
    for v in verdicts:
        by_rank.setdefault(v.partition.rank, []).append(str(v.partition))
    lines = ["digraph fusions {", "  rankdir=BT;"]
    for rank in sorted(by_rank, reverse=True):
        names = " ".join(f'"{t}";' for t in sorted(by_rank[rank]))
        lines.append(f"  {{ rank=same; {names} }}")
    lines += [f'  "{a}" -> "{b}";' for a, b in edges]
    lines.append("}")
    return None, lines, 0


def cmd_wreath(args):
    w = classify_wreath(args.orientation)
    doc = {
        "orientation": args.orientation,
        "base": str(w.base),
        "guaranteed": list(w.guaranteed),
        "special_clique_case": list(w.clique_case),
        "special_multipartite_case": list(w.multipartite_case),
        "never": list(w.never),
        "trivial": list(w.trivial),
    }
    lines = [f"{key}: {', '.join(doc[key])}"
             for key in ("guaranteed", "special_clique_case",
                         "special_multipartite_case", "never", "trivial")]
    eigen, echo = _eigen_from_args(args, required=False)
    if eigen is not None:
        table = char_table(eigen)
        tensor = tensor_square_table(table)
        base = wreath_partition(args.orientation)
        positives = [
            str(q) for q in coarsenings(base)
            if q != base and not q.is_single_block()
            and bm_check(tensor, q).is_fusion
        ]
        doc["input"] = echo
        doc["input_positive_coarsenings"] = positives
        lines = (_table_lines(wreath_table(table, args.orientation)) + lines
                 + ["positive coarsenings for this input:"]
                 + [f"  {t}" for t in positives])
    return doc, lines, 0


def cmd_classify(args):
    result = classify_all()
    summary = result.summary()
    doc = {
        "summary": summary,
        "records": [rec.to_json() for rec in result.records],
    }
    lines = ["classification of all 4140 partitions"]
    for key in ("guaranteed", "trivial", "family", "infeasible", "unresolved"):
        lines.append(f"  {key}: {summary[key]}")
    lines.append("  family membership:")
    for fid, count in summary["families"].items():
        if count:
            parts = result.family_partitions(fid)
            shown = ", ".join(parts[:6]) + (" ..." if len(parts) > 6 else "")
            lines.append(f"    {fid}: {count}  [{shown}]")
    return doc, lines, 0


def cmd_verify(args):
    if args.graph is None or args.partition is None:
        raise UsageError("verify needs --graph and --partition")
    from .oracle import (IntersectionTensor, _srg_scheme, build_graph,
                         tensor_fuse, verify_scheme)
    g = build_graph(args.graph)
    p = parse(args.partition)
    sm, params = _srg_scheme(g)
    result = verify_scheme(tensor_fuse(sm, p))
    eigen = eigen_from_params(params, integral=not args.table_algebra)
    criterion = bm_check(tensor_square_table(char_table(eigen)), p)
    oracle_ok = isinstance(result, IntersectionTensor)
    doc = {
        "graph": g.name,
        "partition": str(p),
        "criterion_fusion": criterion.is_fusion,
        "matrix_fusion": oracle_ok,
    }
    if oracle_ok:
        doc["rank"] = p.rank
        doc["fused_valencies"] = list(result.valencies)
        line = (f"{g.name} / {p}: fusion of rank {p.rank}, "
                f"valencies {result.valencies}")
    else:
        doc["witness"] = {
            "classes": (result.i, result.j, result.klass),
            "cells": [list(result.cell_a), list(result.cell_b)],
            "values": [result.value_a, result.value_b],
        }
        line = (f"{g.name} / {p}: not a fusion; product of classes "
                f"{result.i},{result.j} takes values {result.value_a} and "
                f"{result.value_b} on class {result.klass}")
    return doc, [line], 0 if criterion.is_fusion == oracle_ok else 2


def cmd_crosscheck(args):
    if args.graph is None:
        raise UsageError("crosscheck needs --graph")
    from .oracle import build_graph, cross_check
    g = build_graph(args.graph)
    partitions = None if args.partition is None else [parse(args.partition)]
    report = cross_check(g, partitions)
    doc = {
        "graph": report.graph,
        "checked": report.checked,
        "positives": report.positives,
        "disagreements": [list(d) for d in report.disagreements],
    }
    line = (f"{report.graph}: {report.checked} partitions checked, "
            f"{report.positives} fusions, "
            f"{len(report.disagreements)} disagreements")
    return doc, [line], 0 if report.clean else 2


_COMMANDS = {
    "table": cmd_table,
    "scan": cmd_scan,
    "classify": cmd_classify,
    "wreath": cmd_wreath,
    "verify": cmd_verify,
    "lattice": cmd_lattice,
    "crosscheck": cmd_crosscheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgfusion",
        description="exact fusion classification for tensor squares of "
                    "strongly regular graph schemes",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--mu", type=int)
    parser.add_argument("--nu", type=int)
    parser.add_argument("--eigen", help="k,l,r,s as exact rationals")
    parser.add_argument("--graph", help="named graph, e.g. petersen, paley13, "
                                        "rook3, clebsch, complement:clebsch, "
                                        "cliques3x3, latin6")
    parser.add_argument("--partition", help="partition of 2..9, e.g. 23|47|5689 "
                                            "(verify and crosscheck only)")
    parser.add_argument("--orientation", type=int, default=1, choices=(1, 2))
    parser.add_argument("--format", default="text", choices=("text", "json", "dot"))
    parser.add_argument("--table-algebra", action="store_true",
                        help="allow non-integral multiplicities")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if args.format == "dot" and args.command != "lattice":
        print("dot output is only available for the lattice command",
              file=sys.stderr)
        return 1
    if args.command == "lattice":
        args.format = "dot"
    try:
        if args.partition is not None and args.command not in ("verify",
                                                               "crosscheck"):
            raise UsageError(f"{args.command} takes no --partition")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc, lines, code = _COMMANDS[args.command](args)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        if args.format == "json":
            doc = {**doc, "tool_version": __version__}
            print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        else:
            for line in lines:
                print(line, file=out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
