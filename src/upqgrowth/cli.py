"""Command-line interface.

Exit codes: 0 success, 1 verification failed or checked nothing, 2 bad input,
3 a broken internal invariant (an AssertionError, reported as "internal error"),
141 (128 + SIGPIPE) stdout closed by its reader, which `main` alone reports.
All structured output is JSON with sorted keys; tables default to CSV.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

from . import asymptotics, cohomology, sarnakxue, shapes
from .infchar import format_rational

# verify's targets: target -> (sweep at --nmax, count of its cases up to an
# N, least --nmax, most --nmax); a sweep is looked up when it runs, so a
# patched or traced one runs. The least is the first N with a case (table
# ignores --nmax; maxsl2, whose first case is N = 1, keeps the qd floor).
# The most: qd at 200 is about 0.1 s of work (0.08 s in process, 0.11 s as
# the first call of a fresh one, 2-vCPU Xeon, Python 3.11.7), since it
# decides each (d, r) family by closed forms at the ends of its threshold
# runs, but keeps the limit it had when it took 0.5 s; density at 1600 is
# about 0.01 s (9.5 ms in process, same machine), since it decides its cases
# by blocks, but keeps the limit it had when it took 0.5 s; maxsl2, decided
# by one knapsack, takes 0.25-0.29 s at 1000 in process (same machine),
# where it counts about 5.5 * 10^24 cases
SWEEPS = {
    "table": (lambda n: sarnakxue.verify_table1(), None, 2, None),
    "qd": (lambda n: sarnakxue.verify_qd_bound(n), sarnakxue.qd_count, 2, 200),
    "density": (
        lambda n: sarnakxue.verify_density(n), sarnakxue.density_count, 3, 1600
    ),
    "maxsl2": (lambda n: sarnakxue.verify_maxsl2(n), sarnakxue.maxsl2_count, 2, 1000),
}
# a refusal quotes the count at --nmax up to this N, and above it as more than
# the count here: maxsl2's is an O(N^2) DP, and no int of 4300 digits prints
COUNT_N_MAX = 2000
# the largest N of an sx-table row: the merge knapsack runs each part size
# the row holds up to its number of ones, so the slowest rows of an N are a
# core of distinct small parts padded with ones; they grow like N^2 log N and
# take about 0.15 s at the limit, (15, 14, ..., 2) padded to N = 1200
SX_N_MAX = 1200
# the most digits a printed value may have, an euler value by
# asymptotics.euler_digits and a coh-bounds degree: Python prints no int of
# more than 4300 digits, and any euler value under the cap takes at most
# about 0.1 s (thousands of indices of 1) and mostly a few ms
DIGITS_MAX = 4000
# the largest --rank of a coh-bounds table (rank/2 + 1 rows, about 0.05 s as
# CSV and 0.19-0.24 s as JSON in process, 2-vCPU Xeon, Python 3.11.7); one
# --half-signature row is limited only by the digits of its degree
COH_RANK_MAX = 100_000


class ParseError(ValueError):
    pass


# --- small parsers -----------------------------------------------------------


def parse_partition(text: str) -> tuple[int, ...]:
    body = text.strip().strip("()")
    if not body:
        raise ParseError(f"empty partition in {text!r}")
    try:
        parts = tuple(int(v) for v in body.split(","))
    except ValueError:
        raise ParseError(f"bad partition {text!r}") from None
    if any(v < 1 for v in parts):
        raise ParseError(f"partition parts must be positive in {text!r}")
    return tuple(sorted(parts, reverse=True))


def parse_partition_list(text: str) -> list[tuple[int, ...]]:
    out = [parse_partition(tok) for tok in text.split(";") if tok.strip()]
    if not out:
        raise ParseError("no partition in --parts")
    return out


def parse_ideal(text: str) -> tuple[tuple[int, int], ...]:
    """"2,3^2" -> ((2,1),(3,2))."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        base, caret, exp = tok.partition("^")
        try:
            # "3^" has an empty exponent, which is refused, not read as 1
            out.append((int(base), int(exp) if caret else 1))
        except ValueError:
            raise ParseError(f"bad prime power {tok!r}") from None
    if not out:
        raise ParseError("empty ideal")
    return tuple(out)


def parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParseError(f"bad index list {text!r}") from None


# one decoder for every representation file: a float would round
# 0.50000000000000001 to 1/2 before any check, and json.load(..., parse_float=)
# would build a new decoder per file
_REP_DECODER = json.JSONDecoder(parse_float=Decimal)


def load_rep(path: str) -> cohomology.GlobalRep:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        if text.startswith("\ufeff"):
            # json.load refuses a byte order mark with this text
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        data = _REP_DECODER.decode(text)
    except (OSError, RecursionError, json.JSONDecodeError) as e:
        # RecursionError: arrays or objects nested too deep for the decoder
        raise ParseError(f"cannot read representation: {e}") from None
    try:
        return cohomology.global_rep_from_json(data)
    except (ArithmeticError, KeyError, TypeError, ValueError) as e:
        # ArithmeticError: "1/0" or Infinity among the numbers
        raise ParseError(f"bad representation data: {e}") from None


def format_decimal2(x: Fraction) -> str:
    """Two decimals, ties to even, exact integer arithmetic."""
    n, d = x.numerator * 100, x.denominator
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 100}.{q % 100:02d}"


def _json(obj) -> str:
    """obj as JSON: sorted keys, a 2-space indent, ASCII escapes."""
    return json.dumps(obj, sort_keys=True, indent=2)


# --- subcommands -------------------------------------------------------------
# each returns (exit code, output text), which run prints


def cmd_sx_table(args) -> tuple[int, str]:
    if args.parts is not None:
        part_list = parse_partition_list(args.parts)
        n = max(map(sum, part_list))
        if n > SX_N_MAX:
            raise ParseError(
                f"--parts rows must have N at most {SX_N_MAX}, got a row "
                f"with N = {n}"
            )
    else:
        part_list = [row.q for row in sarnakxue.REFERENCE_TABLE]
    rows = [sarnakxue.sx_row(p) for p in part_list]
    if args.json:
        return 0, _json({"rows": [r.to_json() for r in rows]})
    lines = [
        "Q,provable,conjectural,sx_goal,trivial,"
        "provable_eps,provable_italic,conjectural_italic,exceeds_goal"
    ]
    for r in rows:
        lines.append(
            f"{' '.join(map(str, r.q))},{format_rational(r.provable.main)},"
            f"{format_rational(r.conjectural.main)},{format_decimal2(r.sx_goal)},"
            f"{r.trivial},{r.provable.eps},{r.provable_at_coarsening:d},"
            f"{r.conjectural_at_coarsening:d},{r.exceeds_goal:d}"
        )
    return 0, "\n".join(lines)


def cmd_delta_max(args) -> tuple[int, str]:
    return 0, shapes.delta_max(load_rep(args.rep)).to_text()


def cmd_coh_bounds(args) -> tuple[int, str]:
    n, d = args.rank, args.length
    if args.half_signature is not None:
        rs = [args.half_signature]
    elif n > COH_RANK_MAX:
        raise ParseError(
            f"--rank must be at most {COH_RANK_MAX} without --half-signature, "
            f"got {n}: the table would print {n // 2 + 1} rows"
        )
    else:
        # the r = 0 row is always built, so (length, rank) is always checked
        rs = list(range(0, max(n, 0) // 2 + 1))
    try:
        rows = [(r, cohomology.lowest_degree(d, n, r)) for r in rs]
    except ValueError as e:
        raise ParseError(str(e)) from None
    # a table's degrees are below rank^2/4, so only one row can be too long
    if args.half_signature is not None and rows[0][1] >= 10**DIGITS_MAX:
        raise ParseError(
            f"--rank and --half-signature must give a degree of at most "
            f"{DIGITS_MAX} digits, got a longer one"
        )
    if args.json:
        return 0, _json({"rows": [{"r": r, "degree": deg} for r, deg in rows]})
    return 0, "\n".join(["r,lowest_degree", *(f"{r},{deg}" for r, deg in rows)])


def cmd_verify(args) -> tuple[int, str]:
    nmax = args.nmax
    targets = list(SWEEPS) if args.target == "all" else [args.target]
    least = max(SWEEPS[t][2] for t in targets)
    if nmax < least:
        raise ParseError(f"--nmax must be at least {least}, got {nmax}")
    for t in targets:
        _, count, _, most = SWEEPS[t]
        if most is not None and nmax > most:
            more = "more than " if nmax > COUNT_N_MAX else ""
            raise ParseError(
                f"--nmax must be at most {most} for {t}, got {nmax}: "
                f"the {t} sweep would check {more}"
                f"{count(min(nmax, COUNT_N_MAX))} cases"
            )
    certs = [SWEEPS[t][0](nmax) for t in targets]
    code = 0 if all(c.ok for c in certs) else 1
    if args.json:
        return code, _json({"certificates": [c.to_json() for c in certs]})
    lines = []
    for c in certs:
        if c.ok:
            lines.append(f"ok {c.target}: {c.checked_count} cases ({c.sweep})")
        else:
            lines.append(
                f"FAIL {c.target}: {len(c.violations)} violations "
                f"in {c.checked_count} cases"
            )
        lines += [f"  {v}" for v in c.violations]
    return code, "\n".join(lines)


def cmd_leading_term(args) -> tuple[int, str]:
    rep = load_rep(args.rep)
    return 0, _json(asymptotics.leading_term(rep, convention=args.convention).to_json())


def cmd_euler(args) -> tuple[int, str]:
    ideal = parse_ideal(args.ideal)
    if (args.indices is None) == (args.congruence is None):
        raise ParseError("need exactly one of --indices / --congruence")
    if args.indices is not None:
        option, given = "--indices", args.indices
        ns, n = parse_indices(args.indices), 0
    else:
        option, given = "--congruence", args.congruence
        # a rank below 1 is left to index_congruence, which names the error
        ns, n = ((given,), given) if given >= 1 else ((), 0)
    digits = asymptotics.euler_digits(ns, ideal, n)
    if digits > DIGITS_MAX:
        raise ParseError(
            f"{option} must give at most {DIGITS_MAX} digits for "
            f"--ideal {args.ideal}, got {given}: the value would have up to "
            f"{digits} digits"
        )
    if args.indices is not None:
        value = asymptotics.gamma_factor(ns, ideal)
    else:
        value = asymptotics.index_congruence(given, ideal)
    return 0, format_rational(value)


# --- wiring ------------------------------------------------------------------


class Option(namedtuple("Option", "name dest kind default required help")):
    """One option of a subcommand: kind is str, int, bool (a flag) or a
    tuple of choices; a required option has no default."""

    __slots__ = ()


def _option(name, kind=str, default=None, required=False, help=None) -> Option:
    # dest as argparse derives it from the option name
    return Option(name, name[2:].replace("-", "_"), kind, default, required, help)


_REP = _option("--rep", required=True, help="JSON file, or - for stdin")

# subcommand -> (help, function, options): the one place options are
# declared, read by build_parser and by the plain reader of run
COMMANDS = {
    "sx-table": (
        "density table rows for partitions",
        cmd_sx_table,
        (
            _option("--parts", help='partition list like "(2,2);(2,2,1)"'),
            _option("--json", bool, False),
        ),
    ),
    "delta-max": ("dominant shapes of a representation", cmd_delta_max, (_REP,)),
    "coh-bounds": (
        "lowest cohomological degrees",
        cmd_coh_bounds,
        (
            _option("--length", int, required=True),
            _option("--rank", int, required=True),
            _option("--half-signature", int),
            _option("--json", bool, False),
        ),
    ),
    "verify": (
        "run the certified sweeps",
        cmd_verify,
        (
            _option("--target", ("all", *SWEEPS), "all"),
            _option("--nmax", int, 60),
            _option("--json", bool, False),
        ),
    ),
    "leading-term": (
        "main-term data of a rep",
        cmd_leading_term,
        (_REP, _option("--convention", ("binom", "example1"), "binom")),
    ),
    "euler": (
        "gamma factors and congruence indices",
        cmd_euler,
        (
            _option("--ideal", required=True, help='prime powers like "2,3^2"'),
            _option("--indices", help='gamma indices like "2,1,-1"'),
            _option("--congruence", int, help="congruence index rank"),
        ),
    ),
}


@functools.cache
def build_parser():
    """The CLI's argparse parser, built from COMMANDS on first use and shared
    by every `run` call that the plain reader hands on. argparse is imported
    here, as a plain argv never needs it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="upqgrowth",
        description="Exact growth and density combinatorics for "
        "cohomological representations of real unitary groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in options:
            if o.kind is bool:
                how = {"action": "store_true"}
            elif type(o.kind) is tuple:
                how = {"choices": o.kind}
            else:
                how = {"type": int} if o.kind is int else {}
            p.add_argument(
                o.name,
                default=o.default,
                required=o.required,
                help=o.help,
                **how,
            )
        p.set_defaults(func=func)
    return parser


def read_plain(argv) -> SimpleNamespace | None:
    """The attributes of the Namespace argparse would give for a plain argv,
    without a parser; None for any other argv, which argparse reads instead.

    Plain: argv[0] names a command, each option is spelt out in full and
    given at most once, no value starts with "-", an int option's value
    reads by int() and a choice is one of its choices, and every required
    option is there. So help, errors, abbreviations, --opt=value, repeats
    and negative values all go to argparse. It stays beside argparse, as it
    takes 1.7-4.3 us per argv against 23-51 us for a built parser's
    parse_args (in process, 2-vCPU Xeon, Python 3.11.7), and a plain argv
    never imports argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    values = {}
    rest = iter(argv[1:])
    for name in rest:
        o = next((o for o in options if o.name == name), None)
        if o is None or o.dest in values:
            return None
        if o.kind is bool:
            values[o.dest] = True
            continue
        value = next(rest, "-")  # a missing value reads like an option
        if value.startswith("-"):
            return None
        if o.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif type(o.kind) is tuple and value not in o.kind:
            return None
        values[o.dest] = value
    for o in options:
        if o.dest not in values:
            if o.required:
                return None
            values[o.dest] = o.default
    return SimpleNamespace(command=argv[0], **values, func=func)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            code = e.code
            return code if isinstance(code, int) else 2
    try:
        code, text = args.func(args)
    except ValueError as e:  # ParseError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    print(text)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit as SIGPIPE would, flushing to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
