"""Command-line front end: group-file parsing, catalog access, analysis and
verification commands, report emission.

Group file format (bit-exact): UTF-8 text, ``#`` starts a comment, blank
lines are ignored; the first data line holds the degree n and every further
data line holds n space-separated 0-based integers, one generator in
one-line image notation per line.  n is at most 65536, the element-index
limit :data:`~commprob.perm.MAX_GROUP_ORDER`.

Exit codes: 0 success, 1 verification failure, 2 input error (out of memory
included).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys

from .perm import (
    DEFAULT_ORDER_CAP,
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupError,
    OrderCapExceeded,
    Permutation,
    generate_group,
)
from .constructors import (
    ActionSpec,
    catalog_keys,
    catalog_orders,
    named,
    semidirect_product,
)
from .isoclinism import find_isoclinism
from .probability import DEFAULT_ORACLE_CAP, commuting_pairs_oracle, commuting_probability
from .structure import Subgroup, center, derived_subgroup, normal_subgroups
from .theorems import (
    Verdict,
    _is_klein,
    analyze,
    run_catalog_verification,
    summarize,
    verify_class_size_theorem,
    verify_klein_fixed_point,
    verify_odd_35_243,
    verify_supersolvable_1_3,
    verify_supersolvable_5_16,
)


class GroupFileError(GroupError):
    """Malformed group or action file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _entries(lineno: int, parts: list[str], n: int) -> list[int]:
    """The n integers of a data line, with line-numbered errors."""
    if len(parts) != n:
        raise GroupFileError(lineno, f"expected {n} entries, found {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise GroupFileError(lineno, "entries must be integers") from None


def parse_group_file(text: str) -> tuple[int, list[Permutation]]:
    """Parse degree and generator permutations, with line-numbered errors."""
    degree: int | None = None
    generators: list[Permutation] = []
    for lineno, parts in _data_lines(text):
        if degree is None:
            if len(parts) != 1:
                raise GroupFileError(lineno, "expected a single degree value")
            try:
                degree = int(parts[0])
            except ValueError:
                raise GroupFileError(lineno, f"invalid degree {parts[0]!r}") from None
            if degree < 1:
                raise GroupFileError(lineno, "degree must be a positive integer")
            if degree > MAX_GROUP_ORDER:
                message = f"degree {degree} exceeds the limit of {MAX_GROUP_ORDER}"
                raise GroupFileError(lineno, message)
            continue
        values = _entries(lineno, parts, degree)
        try:
            generators.append(Permutation(values))
        except GroupError as exc:
            raise GroupFileError(lineno, str(exc)) from None
    if degree is None:
        raise GroupFileError(1, "empty group file")
    return degree, generators


def format_group_file(G: FiniteGroup) -> str:
    """Emit a group as a parseable generator file (canonical generators)."""
    lines = [str(G.degree)]
    for g in G.generating_indices():
        lines.append(" ".join(str(v) for v in G.element(g).images))
    return "\n".join(lines) + "\n"


def _group_source(args, suffix: str = "") -> tuple[str | None, str | None]:
    """The catalog key and file path given as ``--name<suffix>`` and
    ``path<suffix>`` (suffix "2" for isoclinic's second group), exactly one
    of them set."""
    name, path = getattr(args, "name" + suffix, None), getattr(args, "path" + suffix, None)
    if (name is None) == (path is None):
        which = "a second group file path" if suffix else "a group file path"
        raise GroupError(f"give exactly one of a catalog --name{suffix} or {which}")
    return name, path


def _load_group(args, suffix: str = "") -> tuple[FiniteGroup, str]:
    name, path = _group_source(args, suffix)
    return _group(name, path, args.max_order), name or path


def _group(name: str | None, path: str | None, max_order: int) -> FiniteGroup:
    """The catalog group ``name`` if it is given, else the group file at ``path``."""
    if name is not None:
        _check_cap(catalog_orders().get(name, 0), max_order)
        return named(name)
    degree, gens = parse_group_file(_read_text(path))
    return generate_group(degree, gens, max_order=max_order)


def _check_cap(order: int, max_order: int) -> None:
    """Refuse a catalog group above ``max_order``, as a group file is refused."""
    if order > max_order:
        raise OrderCapExceeded(f"group closure exceeded the order cap of {max_order}")


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _select_normal(G: FiniteGroup, spec: str) -> Subgroup:
    if spec == "center":
        return center(G)
    if spec == "derived":
        return derived_subgroup(G)
    normals = normal_subgroups(G)
    if spec == "klein":
        matches = [n for n in normals if _is_klein(G, n)]
    else:
        try:
            order = int(spec)
        except ValueError:
            raise GroupError(
                f"--normal must be 'center', 'derived', 'klein' or an order, not {spec!r}"
            ) from None
        matches = [n for n in normals if n.order == order]
    if len(matches) != 1:
        raise GroupError(
            f"--normal {spec!r} matches {len(matches)} normal subgroups; "
            f"normal orders are {[n.order for n in normals]}"
        )
    return matches[0]


def _emit(obj: dict | list, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        _emit_table(obj)


def _emit_table(obj: dict) -> None:
    for key, value in obj.items():
        if key == "verdicts":
            print("verdicts:")
            for v in value:
                note = f"  ({v['note']})" if v["note"] else ""
                print(f"  {Verdict(**v).state:7} {v['statement']}{note}")
        else:
            print(f"{key}: {value}")


# -- subcommands ---------------------------------------------------------------


def _cmd_analyze(args) -> int:
    G, label = _load_group(args)
    report = analyze(G, name=label)
    _emit(report.to_dict(), args.format)
    return 0


def _normal(G: FiniteGroup, args) -> Subgroup:
    if args.normal is None:
        raise GroupError(f"--theorem {args.theorem} needs --normal")
    return _select_normal(G, args.normal)


def _oracle_verdict(G: FiniteGroup, args) -> Verdict:
    d = commuting_probability(G)
    oracle = commuting_pairs_oracle(G, max_order=args.oracle_cap)
    return Verdict(
        "d==commuting-pairs/|G|^2",
        True,
        d == oracle,
        note=f"d={d.numerator}/{d.denominator}",
    )


# verify --theorem's choices besides "all", each with its verdict builder
_THEOREMS = {
    "5/16": lambda G, args: verify_supersolvable_5_16(G),
    "1/3": lambda G, args: verify_supersolvable_1_3(G),
    "odd": lambda G, args: verify_odd_35_243(G),
    "class-size": lambda G, args: verify_class_size_theorem(G, _normal(G, args), args.s),
    "klein": lambda G, args: verify_klein_fixed_point(G, _normal(G, args)),
    "oracle": _oracle_verdict,
}


def _cmd_verify(args) -> int:
    if not args.all and args.name is None and args.path is None:
        raise GroupError("verify needs --all, --name, or a group file path")
    if args.all and (args.name is not None or args.path is not None):
        raise GroupError("verify --all takes no --name or group file path")
    if args.all and args.theorem != "all":
        raise GroupError("verify --all runs every theorem; it takes no --theorem")
    if args.theorem != "all":
        G, label = _load_group(args)
        verdict = _THEOREMS[args.theorem](G, args)
        payload = {"name": label, **verdict.to_dict()}
        _emit(payload, args.format)
        return 1 if verdict.is_failure() else 0
    if args.all:
        _check_cap(max(catalog_orders().values()), args.max_order)
        reports, _ = run_catalog_verification()
    else:
        G, label = _load_group(args)
        reports = [analyze(G, name=label)]
    return _emit_verify(reports, args.format)


def _emit_verify(reports, fmt: str) -> int:
    summary = summarize(reports)
    if fmt == "json":
        for report in reports:
            print(json.dumps(report.to_dict(), separators=(",", ":")))
        print(json.dumps({"summary": summary}, separators=(",", ":")))
    else:
        for report in reports:
            d = report.to_dict()
            print(f"== {d['name']} (order {d['order']}, d={d['d']})")
            for v in report.theorem_verdicts:
                if v.state == "FAIL":
                    print(f"   FAIL {v.statement} {v.note}")
        print(
            "summary: {groups} groups, {verdicts} verdicts, {applicable} applicable, "
            "{failures} failures".format(**summary)
        )
    return 1 if summary["failures"] else 0


def _cmd_isoclinic(args) -> int:
    if args.name is not None and args.path is not None and args.path2 is args.name2 is None:
        args.path, args.path2 = None, args.path  # --name G H.grp: the file is the second group
    _group_source(args, "2")  # a bad second source is refused before the first is read
    G, la = _load_group(args)
    H, lb = _load_group(args, "2")
    witness = find_isoclinism(G, H)
    payload: dict = {"first": la, "second": lb, "isoclinic": witness is not None}
    if witness is not None and args.witness:
        payload["witness"] = {
            "quotient_iso": list(witness.quotient_iso),
            "derived_iso": list(witness.derived_iso),
        }
    _emit(payload, args.format)
    return 0


def _cmd_catalog(args) -> int:
    orders = catalog_orders()
    if args.format == "json":
        _emit([{"name": k, "order": orders[k]} for k in catalog_keys()], "json")
    else:
        for k in catalog_keys():
            print(f"{orders[k]:5}  {k}")
    return 0


def _parse_action_file(text: str, n_order: int, count: int) -> list[tuple[int, ...]]:
    """Action file: first data line is |N|, then one image line of |N|
    element indices per acting generator."""
    declared: int | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, parts in _data_lines(text):
        if declared is None:
            if len(parts) != 1 or not parts[0].isdecimal():
                raise GroupFileError(lineno, "expected the size of N on the first line")
            declared = int(parts[0])
            if declared != n_order:
                raise GroupFileError(
                    lineno, f"action is over {declared} indices but |N| = {n_order}"
                )
            continue
        rows.append(tuple(_entries(lineno, parts, n_order)))
    if declared is None:
        raise GroupFileError(1, "empty action file")
    if len(rows) != count:
        raise GroupFileError(
            1, f"expected {count} image lines (one per acting generator), found {len(rows)}"
        )
    return rows


def _cmd_construct(args) -> int:
    keys = catalog_orders()  # --n and --h are each a catalog key or a path
    N, H = (_group(s if s in keys else None, s, args.max_order) for s in (args.n, args.h))
    if args.h_gens is not None:
        parts = args.h_gens.split(",")
        if not all(p.strip().isdecimal() and int(p) < H.order for p in parts):
            raise GroupError(f"--h-gens must be indices in 0..{H.order - 1}, not {args.h_gens!r}")
        h_gens = tuple(map(int, parts))
    else:
        h_gens = H.generating_indices()
    if args.describe:
        print(f"# N: order {N.order}; element index -> images")
        for i, p in enumerate(N.elements):
            print(f"#   {i}: {' '.join(str(v) for v in p.images)}")
        print(f"# H: order {H.order}; acting generator indices: {list(h_gens)}")
        print("# action file: first line |N|, then one image line per acting generator")
        return 0
    if args.action is None:
        raise GroupError("construct semidirect needs --action (or --describe)")
    rows = _parse_action_file(_read_text(args.action), N.order, len(h_gens))
    G = semidirect_product(
        N, H, ActionSpec(tuple(h_gens), tuple(rows)), max_order=args.max_order
    )
    output = format_group_file(G)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(output)
        print(f"wrote group of order {G.order} to {args.out}")
    else:
        sys.stdout.write(output)
    return 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commprob",
        description="Exact commuting probabilities and structure of small finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    max_order = argparse.ArgumentParser(add_help=False)
    max_order.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("analyze", parents=[max_order, fmt], help="full report for one group")
    p.add_argument("path", nargs="?", help="group file")
    p.add_argument("--name", help="catalog key")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", parents=[max_order, fmt], help="run theorem verifiers")
    p.add_argument("path", nargs="?", help="group file")
    p.add_argument("--name", help="catalog key")
    p.add_argument("--all", action="store_true", help="whole catalog")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--theorem", choices=("all", *_THEOREMS), default="all")
    p.add_argument("--s", type=int, default=4, help="threshold s for class-size")
    p.add_argument("--normal", help="center | derived | klein | <order>")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("isoclinic", parents=[max_order, fmt], help="decide isoclinism")
    p.add_argument("path", nargs="?", help="first group file")
    p.add_argument("path2", nargs="?", help="second group file")
    p.add_argument("--name", help="first catalog key")
    p.add_argument("--name2", help="second catalog key")
    p.add_argument("--witness", action="store_true", help="emit the witness maps")
    p.set_defaults(func=_cmd_isoclinic)

    p = sub.add_parser("catalog", parents=[fmt], help="catalog access")
    p.add_argument("catalog_cmd", choices=("list",))
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("construct", parents=[max_order], help="build product groups")
    p.add_argument("construct_cmd", choices=("semidirect",))
    p.add_argument("--n", required=True, help="normal factor: catalog key or file")
    p.add_argument("--h", required=True, help="acting factor: catalog key or file")
    p.add_argument("--action", help="action file")
    p.add_argument("--h-gens", help="comma-separated acting generator indices")
    p.add_argument("--out", help="write the product as a group file")
    p.add_argument(
        "--describe",
        action="store_true",
        help="print N's element indexing and H's acting generators, then exit",
    )
    p.set_defaults(func=_cmd_construct)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the final collection at exit skips what the command leaves, which the OS frees
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "max_order", 1) <= MAX_GROUP_ORDER:
            raise GroupError(f"--max-order must be in 1..{MAX_GROUP_ORDER}, not {args.max_order}")
        if getattr(args, "oracle_cap", 1) < 1:
            raise GroupError(f"--oracle-cap must be at least 1, not {args.oracle_cap}")
        if getattr(args, "s", 2) < 2:
            raise GroupError(f"--s must be at least 2, not {args.s}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (GroupError, OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, BrokenPipeError):  # nothing more can reach stdout
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # not a failed verdict: the input is too large for this machine
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
