"""Command-line interface.

Exit codes: 0 success, 1 verification failed or checked nothing, 2 bad input,
3 a broken internal invariant (an AssertionError, reported as "internal error").
All structured output is JSON with sorted keys; tables default to CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import asymptotics, cohomology, sarnakxue, shapes
from .infchar import format_rational

MAXSL2_NMAX = 48  # verify runs the maxsl2 sweep at most this far
# the smallest --nmax per target: the first N at which its sweep has a case
# (table ignores --nmax; maxsl2, whose first case is N = 1, keeps the qd floor)
NMAX_MIN = {"table": 2, "qd": 2, "density": 3, "maxsl2": 2}
# the largest --nmax of the qd and density sweeps, each about 1 s of work;
# maxsl2 is capped at MAXSL2_NMAX instead
NMAX_MAX = {"qd": 200, "density": 1600}
# the largest N of an sx-table row: the merge knapsack grows like N^2 log N,
# and the slowest row of an N, all ones, takes about 0.8 s at the limit
SX_N_MAX = 1200
# the most digits an euler value may have, by asymptotics.euler_digits: Python
# prints no int of more than 4300 digits, and any value under the cap takes
# at most about 0.1 s (thousands of indices of 1) and mostly a few ms
EULER_DIGITS_MAX = 4000
# the largest --rank of a coh-bounds table (rank/2 + 1 rows, about 0.1 s as
# CSV and 0.27 s as JSON); one --half-signature row has no limit
COH_RANK_MAX = 100_000


def sweep_cases(target: str, nmax: int) -> int:
    """The number of cases the qd or density sweep checks up to nmax."""
    if target == "qd":
        return nmax * (nmax - 1) // 2
    return (nmax - 1) * (nmax - 2) // 2


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
        base, _, exp = tok.partition("^")
        try:
            out.append((int(base), int(exp) if exp else 1))
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


def load_rep(path: str) -> cohomology.GlobalRep:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, RecursionError, json.JSONDecodeError) as e:
        # RecursionError: arrays or objects nested too deep for the decoder
        raise ParseError(f"cannot read representation: {e}") from None
    try:
        return cohomology.global_rep_from_json(data)
    except (ArithmeticError, KeyError, TypeError, ValueError) as e:
        # ArithmeticError: "1/0" or an overflowing 1e400 among the numbers
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


_encode_str = json.encoder.encode_basestring_ascii  # json's C escaper


def _json_text(obj, pad: str = "") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2); keys are str.

    With an indent, CPython's json runs its pure-Python encoder; this writer
    prints the same text, a delta-max record in about a third of the time.
    Str and int items of a container are written in place, without a call.
    """
    if isinstance(obj, dict):
        keys = sorted(obj)
        items = [obj[k] for k in keys]
        opener, closer = "{", "}"
    elif isinstance(obj, (list, tuple)):
        keys, items = None, obj
        opener, closer = "[", "]"
    elif type(obj) is str:
        return _encode_str(obj)
    elif type(obj) is int:
        return int.__repr__(obj)
    else:  # bool, None and float, as json prints them
        return json.dumps(obj)
    if not items:
        return opener + closer
    inner = pad + "  "
    body = [
        _encode_str(v) if type(v) is str
        else int.__repr__(v) if type(v) is int
        else _json_text(v, inner)
        for v in items
    ]
    if keys is not None:
        body = [_encode_str(k) + ": " + text for k, text in zip(keys, body)]
    return f"{opener}\n{inner}" + f",\n{inner}".join(body) + f"\n{pad}{closer}"


def _emit_json(obj) -> None:
    """Print obj as JSON: sorted keys, a 2-space indent, ASCII escapes."""
    print(_json_text(obj))


# --- subcommands -------------------------------------------------------------


def cmd_sx_table(args) -> int:
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
        _emit_json({"rows": [r.to_json() for r in rows]})
        return 0
    print(
        "Q,provable,conjectural,sx_goal,trivial,"
        "provable_eps,provable_italic,conjectural_italic,exceeds_goal"
    )
    for r in rows:
        print(
            ",".join(
                [
                    " ".join(str(v) for v in r.q),
                    format_rational(r.provable.main),
                    format_rational(r.conjectural.main),
                    format_decimal2(r.sx_goal),
                    str(r.trivial),
                    str(r.provable.eps),
                    str(int(r.provable_at_coarsening)),
                    str(int(r.conjectural_at_coarsening)),
                    str(int(r.exceeds_goal)),
                ]
            )
        )
    return 0


def cmd_delta_max(args) -> int:
    _emit_json(shapes.delta_max(load_rep(args.rep)).to_json())
    return 0


def cmd_coh_bounds(args) -> int:
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
    if args.json:
        _emit_json({"rows": [{"r": r, "degree": deg} for r, deg in rows]})
        return 0
    print("r,lowest_degree")
    for r, deg in rows:
        print(f"{r},{deg}")
    return 0


def cmd_verify(args) -> int:
    nmax = args.nmax
    targets = list(NMAX_MIN) if args.target == "all" else [args.target]
    least = max(NMAX_MIN[t] for t in targets)
    if nmax < least:
        raise ParseError(f"--nmax must be at least {least}, got {nmax}")
    for t in targets:
        if t in NMAX_MAX and nmax > NMAX_MAX[t]:
            raise ParseError(
                f"--nmax must be at most {NMAX_MAX[t]} for {t}, got {nmax}: "
                f"the {t} sweep would check {sweep_cases(t, nmax)} cases"
            )
    cap_notes = (
        (f"nmax {nmax} capped at {MAXSL2_NMAX}",) if nmax > MAXSL2_NMAX else ()
    )

    def maxsl2():
        cert = sarnakxue.verify_maxsl2(min(MAXSL2_NMAX, nmax))
        return cert._replace(notes=cert.notes + cap_notes)

    runners = {
        "table": sarnakxue.verify_table1,
        "qd": lambda: sarnakxue.verify_qd_bound(nmax),
        "density": lambda: sarnakxue.verify_density(nmax),
        "maxsl2": maxsl2,
    }
    certs = [runners[t]() for t in targets]
    if args.json:
        _emit_json({"certificates": [c.to_json() for c in certs]})
    else:
        for c in certs:
            if c.ok:
                print(f"ok {c.target}: {c.checked_count} cases ({c.sweep})")
            else:
                print(
                    f"FAIL {c.target}: {len(c.violations)} violations "
                    f"in {c.checked_count} cases"
                )
            if c.target == "maxsl2":
                for note in cap_notes:
                    print(f"  note: {note}")
            for v in c.violations:
                print(f"  {v}")
    return 0 if all(c.ok for c in certs) else 1


def cmd_leading_term(args) -> int:
    rep = load_rep(args.rep)
    term = asymptotics.leading_term(rep, convention=args.convention)
    _emit_json(term.to_json())
    return 0


def cmd_euler(args) -> int:
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
    if digits > EULER_DIGITS_MAX:
        raise ParseError(
            f"{option} must give at most {EULER_DIGITS_MAX} digits for "
            f"--ideal {args.ideal}, got {given}: the value would have up to "
            f"{digits} digits"
        )
    if args.indices is not None:
        value = asymptotics.gamma_factor(ns, ideal)
    else:
        value = asymptotics.index_congruence(given, ideal)
    print(format_rational(value))
    return 0


# --- wiring ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every `run` call."""
    parser = argparse.ArgumentParser(
        prog="upqgrowth",
        description="Exact growth and density combinatorics for "
        "cohomological representations of real unitary groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sx-table", help="density table rows for partitions")
    p.add_argument("--parts", help='partition list like "(2,2);(2,2,1)"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sx_table)

    p = sub.add_parser("delta-max", help="dominant shapes of a representation")
    p.add_argument("--rep", required=True, help="JSON file, or - for stdin")
    p.set_defaults(func=cmd_delta_max)

    p = sub.add_parser("coh-bounds", help="lowest cohomological degrees")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--half-signature", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coh_bounds)

    p = sub.add_parser("verify", help="run the certified sweeps")
    p.add_argument(
        "--target",
        choices=["all", "table", "qd", "density", "maxsl2"],
        default="all",
    )
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("leading-term", help="main-term data of a rep")
    p.add_argument("--rep", required=True, help="JSON file, or - for stdin")
    p.add_argument(
        "--convention",
        choices=["binom", "example1"],
        default="binom",
    )
    p.set_defaults(func=cmd_leading_term)

    p = sub.add_parser("euler", help="gamma factors and congruence indices")
    p.add_argument("--ideal", required=True, help='prime powers like "2,3^2"')
    p.add_argument("--indices", help='gamma indices like "2,1,-1"')
    p.add_argument("--congruence", type=int, help="congruence index rank")
    p.set_defaults(func=cmd_euler)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as e:  # ParseError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
