"""Command line surface; every command prints machine-readable JSON.

Exit codes: 0 for success or verified-true, 1 for verified-false (a
membership or check that came back negative), 2 for runtime errors and
64 for usage errors.  All randomized commands take --rng-seed and are
deterministic given the seed; no environment variable changes behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import bounds, coxeter, double_bruhat, graphs, seeds, tropical
from .laurent import LaurentPoly
from .util import decimal_int

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _within(least: int, most: int | None = None):
    """argparse type of an integer option: ASCII digits, so an int >= 0,
    and in least..most."""

    def count(text: str) -> int:
        if not (text.isascii() and text.isdigit()):
            raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
        n = int(text)
        if most is not None and n > most:
            raise argparse.ArgumentTypeError(f"expected at most {most}, got {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"expected at least {least}, got {text!r}")
        return n

    return count


_count = _within(0)
# a count whose cost is exponential in it has a most: a tree of radius R
# (--radius, --depth) has 3 * 2^(R+1) - 2 vertices, and diffcomb walks 2^s
# subsets; a cell check that draws no sample (--samples 0) verifies nothing
_radius = _within(0, 14)
_size = _within(1, 16)
_samples = _within(1)


def _rationals(text: str) -> tuple:
    """argparse type of --nu and --delta: comma separated exact rationals."""
    entries = text.split(",")
    if not all(re.fullmatch(r"-?[0-9]+(\.[0-9]+|/0*[1-9][0-9]*)?", x) for x in entries):
        raise argparse.ArgumentTypeError(f"expected exact rationals, got {text!r}")
    return tuple(Fraction(x) for x in entries)


def _word(text: str) -> tuple:
    """argparse type of --word and --directions: -?[0-9]+ letters between spaces."""
    try:
        return tuple(decimal_int(x) for x in text.split(" ") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integer letters, got {text!r}"
        ) from None


def _load_json_arg(value: str):
    """Accept inline JSON or a path to a JSON file."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        if not os.path.isfile(value):
            raise ValueError(f"not valid JSON and not a file: {value!r}")
        with open(value) as f:
            return json.load(f)


def _load_matrix(value: str) -> seeds.ExchangeMatrix:
    data = _load_json_arg(value)
    if isinstance(data, list):
        B = seeds.ExchangeMatrix.make(data)
    else:
        B = seeds.ExchangeMatrix.from_json(data)
    if B.n == 0:  # as --type A0: rank 0 is refused, not the trivial finite type
        raise ValueError("an exchange matrix needs rank n >= 1, got n = 0")
    return B


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_mutate(args) -> int:
    B = _load_matrix(args.matrix)
    for k in args.directions:
        B = seeds.matrix_mutate(B, k - 1)
    _emit(B.to_json())
    return 0


def _cmd_acyclic(args) -> int:
    B = _load_matrix(args.matrix)
    order = graphs.acyclic_order(B)
    _emit(
        {
            "acyclic": order is not None,
            "order": None if order is None else [i + 1 for i in order],
        }
    )
    return 0 if order is not None else 1


def _cmd_classify(args) -> int:
    B = _load_matrix(args.matrix)
    out = graphs.classify_finite_type(B, node_cap=args.node_cap)
    _emit(out.to_json())
    return 0 if out.verdict != "inconclusive" else 1


def _cmd_explore(args) -> int:
    B = _load_matrix(args.seed)
    rep = graphs.explore_exchange_graph(
        seeds.initial_seed(B), max_seeds=args.max_seeds
    )
    _emit(rep.to_json())
    return 0 if rep.exhausted else 1


def _cmd_btilde(args) -> int:
    cartan = coxeter.cartan_data(args.type)
    iw = double_bruhat.indexed_word(cartan, args.word)
    bt = double_bruhat.build_btilde(iw, cartan)
    check = double_bruhat.btilde_direct(iw, cartan)
    payload = bt.to_json()
    payload["direct_construction_agrees"] = bt.rows == check.rows
    payload["gamma_dot"] = double_bruhat.gamma_tilde_dot(
        iw, double_bruhat.build_gamma_tilde(iw, cartan)
    )
    _emit(payload)
    return 0


class _UsageError(Exception):
    """A combination of valid options that does not make sense; exit 64."""


def _closed_forms_for(cartan, word, choice):
    """The closed forms --closed-forms names, checked against the word.

    Each set of forms describes one word; ``auto`` takes the set whose
    word is given, if any, and an explicit choice of another set is a
    usage error.
    """
    if choice == "none":
        return None
    forms = {
        "open-cell-a2": (
            ("A2", (1, 2, 1, -1, -2, -1)),
            double_bruhat.open_cell_a2_closed_forms,
        ),
        "coxeter": (
            (cartan.name, double_bruhat.coxeter_cell_word(cartan)),
            lambda: double_bruhat.coxeter_cell_closed_forms(cartan),
        ),
    }
    given = (cartan.name, word)
    if choice == "auto":
        return next((make() for owner, make in forms.values() if owner == given), None)
    (type_name, owner_word), make = forms[choice]
    if given != (type_name, owner_word):
        raise _UsageError(
            f"--closed-forms {choice} describes only --type {type_name} "
            f"--word {' '.join(map(str, owner_word))!r}"
        )
    return make()


def _cmd_verify_cell(args) -> int:
    cartan = coxeter.cartan_data(args.type)
    word = args.word
    rep = double_bruhat.verify_cell_identities(
        cartan,
        word,
        samples=args.samples,
        rng_seed=args.rng_seed,
        closed_forms=_closed_forms_for(cartan, word, args.closed_forms),
    )
    _emit(rep.to_json())
    return 0 if rep.ok else 1


def _cmd_tp_check(args) -> int:
    cartan = coxeter.cartan_data(args.type)
    rep = double_bruhat.tp_criterion_check(
        cartan,
        args.word,
        samples=args.samples,
        clusters=args.clusters,
        rng_seed=args.rng_seed,
    )
    _emit(rep.to_json())
    return 0 if rep.ok else 1


def _cmd_straighten(args) -> int:
    B = _load_matrix(args.matrix)
    if B.m != B.n:  # general_seed supplies the coefficient rows itself
        raise ValueError(f"straighten takes a principal matrix, not {B.m} x {B.n}")
    seed = seeds.general_seed(B.entries)
    gctx = bounds.generator_context(seed)
    p = LaurentPoly.from_json(_load_json_arg(args.poly), gctx)
    out = bounds.straighten(p, seed)
    _emit(out.to_json())
    return 0


def _cmd_upper_member(args) -> int:
    B = _load_matrix(args.seed)
    seed = seeds.initial_seed(B)
    num = LaurentPoly.from_json(_load_json_arg(args.num), seed.ctx)
    den = None
    if args.den is not None:
        den = LaurentPoly.from_json(_load_json_arg(args.den), seed.ctx)
    res = bounds.upper_bound_member(num, seed, den)
    _emit(res.to_json())
    return 0 if res.member else 1


def _cmd_tropical(args) -> int:
    B = _load_matrix(args.seed)
    seed = seeds.initial_seed(B)
    if args.delta is not None:
        witness = tropical.delta_witness(
            seed.matrix,
            radius=4 if args.radius is None else args.radius,
            delta0=args.delta,
        )
        _emit(witness.to_json())
        return 0 if witness.valid else 1
    v0 = tropical.Valuation.on_cluster(seed, args.nu)
    depth = 3 if args.depth is None else args.depth
    out = tropical.propagate_valuation(seed, v0, depth=depth)
    _emit(out.to_json())
    return 0


def _cmd_diffcomb(args) -> int:
    ok = bounds.diffcomb_check(args.size)
    _emit({"size": args.size, "holds": ok})
    return 0 if ok else 1


def _cmd_roots(args) -> int:
    cartan = coxeter.cartan_data(args.type)
    _emit(
        {
            "type": cartan.name,
            "count": len(cartan.positive_roots),
            "positive_roots": [list(r) for r in cartan.positive_roots],
        }
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="clusterforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="apply matrix mutations (1-based directions)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--directions", type=_word, required=True)
    p.set_defaults(fn=_cmd_mutate)

    p = sub.add_parser("acyclic", help="test acyclicity and report an order")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=_cmd_acyclic)

    p = sub.add_parser("classify", help="finite type classification by BFS")
    p.add_argument("--matrix", required=True)
    p.add_argument("--node-cap", type=_count, default=100_000)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("explore", help="exchange graph census")
    p.add_argument("--seed", required=True)
    p.add_argument("--max-seeds", type=_count, default=10_000)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("btilde", help="extended exchange matrix of a double word")
    p.add_argument("--type", required=True)
    p.add_argument("--word", type=_word, required=True)
    p.set_defaults(fn=_cmd_btilde)

    p = sub.add_parser("verify-cell", help="verify exchange identities on samples")
    p.add_argument("--type", required=True)
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--samples", type=_samples, default=100)
    p.add_argument("--rng-seed", type=_count, default=1)
    p.add_argument(
        "--closed-forms",
        choices=("auto", "open-cell-a2", "coxeter", "none"),
        default="auto",
    )
    p.set_defaults(fn=_cmd_verify_cell)

    p = sub.add_parser("tp-check", help="total positivity criteria on TP samples")
    p.add_argument("--type", required=True)
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--samples", type=_samples, default=50)
    p.add_argument("--clusters", type=_count, default=10)
    p.add_argument("--rng-seed", type=_count, default=1)
    p.set_defaults(fn=_cmd_tp_check)

    p = sub.add_parser("straighten", help="rewrite to standard monomials")
    p.add_argument("--matrix", required=True, help="principal exchange matrix")
    p.add_argument("--poly", required=True, help="polynomial in x_j, x_j' symbols")
    p.set_defaults(fn=_cmd_straighten)

    p = sub.add_parser("upper-member", help="upper bound membership with certificates")
    p.add_argument("--seed", required=True)
    p.add_argument("--num", required=True)
    p.add_argument("--den")
    p.set_defaults(fn=_cmd_upper_member)

    p = sub.add_parser("tropical", help="valuation propagation / delta witness")
    p.add_argument("--seed", required=True)
    p.add_argument("--nu", type=_rationals, help="comma separated cluster weights")
    p.add_argument("--depth", type=_radius, help="with --nu; default 3")
    p.add_argument(
        "--delta", type=_rationals, help="comma separated initial delta triple"
    )
    p.add_argument("--radius", type=_radius, help="with --delta; default 4")
    p.set_defaults(fn=_cmd_tropical)

    p = sub.add_parser("diffcomb", help="verify the cyclic subset identity")
    p.add_argument("--size", type=_size, required=True)
    p.set_defaults(fn=_cmd_diffcomb)

    p = sub.add_parser("roots", help="positive roots of a finite type")
    p.add_argument("--type", required=True)
    p.set_defaults(fn=_cmd_roots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tropical":
        if (args.nu is None) == (args.delta is None):
            parser.error("tropical needs one of --nu and --delta")
        if (args.depth if args.nu is None else args.radius) is not None:
            parser.error("--nu goes with --depth and --delta with --radius")
        # tropical is rank-3 only: one entry per cluster variable
        option, values = ("--nu", args.nu) if args.delta is None else ("--delta", args.delta)
        if len(values) != 3:
            parser.error(f"{option} needs 3 entries, got {len(values)}")
    try:
        return args.fn(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:  # any failure is exit 2, never a traceback's exit 1
        # CPython's digit-limit message names a Python call; name the
        # interpreter option a command-line user can pass instead
        message = str(exc).replace(
            "sys.set_int_max_str_digits()", "python -X int_max_str_digits=N"
        )
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
