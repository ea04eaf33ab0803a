"""Bounded fuzz of the CLI: every input honours the exit-code contract.

Well-formed and malformed JSON and text go to mutate, acyclic, explore,
classify, upper-member and tropical; small sizes, words, sample counts
and seeds go to diffcomb, and to verify-cell and tp-check on A2.  Whatever
the input, the exit code is 0, 1, 2 or 64, and exit 1 (verified false)
always comes with JSON on stdout.  Integer matrices with a broken sign
pattern go to every command that reads a matrix, and exit 2.  Skipped when hypothesis is not installed.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from clusterforge.cli import main  # noqa: E402

from conftest import MARKOV  # noqa: E402

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _matrix(draw, max_rank=3, entries=2, min_rank=1):
    """A skew-symmetrizable bare-array matrix, at times with one frozen row."""
    n = draw(st.integers(min_rank, max_rank))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            b = draw(st.integers(-entries, entries))
            c = draw(st.sampled_from((1, 1, 2))) if b else 0
            rows[i][j], rows[j][i] = b, -b * c
    rows += draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                          max_size=1))
    return rows


@st.composite
def _broken_matrix(draw):
    """_matrix with its sign pattern broken at one place: a nonzero diagonal
    entry, or a pair with b_ij b_ji >= 0 and one of them nonzero."""
    rows = draw(_matrix(max_rank=4))
    n = len(rows[0])
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    if i == j:
        rows[i][i] = draw(st.integers(-2, 2).filter(bool))
    else:
        rows[i][j] = draw(st.integers(-2, 2).filter(bool))
        rows[j][i] = draw(st.integers(0, 2)) * (1 if rows[i][j] > 0 else -1)
    return rows


def _matrix_arg(max_rank=3, entries=2):
    well = _matrix(max_rank, entries).map(json.dumps)
    named = _matrix(max_rank, entries).map(lambda r: json.dumps({"btilde": r}))
    junk = _json.map(json.dumps) | st.text(max_size=12)
    return st.one_of(well, well, named, junk)


def _laurent_arg(n):
    names = [f"x{i + 1}" for i in range(n)]
    term = st.fixed_dictionaries({
        "exp": st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        "coef": st.integers(-3, 3).map(str) | st.integers(-3, 3),
    })
    well = st.lists(term, max_size=3).map(
        lambda ts: json.dumps({"vars": names, "terms": ts})
    )
    return st.one_of(well, well, _json.map(json.dumps), st.text(max_size=12))


_count = st.one_of(st.integers(0, 3).map(str), st.integers(0, 3).map(str),
                   st.text(max_size=3))
_well_rationals = st.lists(
    st.sampled_from(("0", "1", "-2", "1/2", "0.5", "3/4")), min_size=3, max_size=3
).map(",".join)
_rationals = st.one_of(_well_rationals, _well_rationals, st.text(max_size=8),
                       st.sampled_from(("0,0", "0,0,1,5", "1/0,1,1", "1_0,1,1")))


_words = st.sampled_from(
    ("1 2 1 -1 -2 -1", "-1 -2 1 2", "1 -1", "2 1 -2 -1 2", "", "1 1", "3", "x",
     "١ ٢ ١ -١ -٢ -١", "1_0", "1 +2")
)
_a2_word = st.one_of(_words, _words, st.text(max_size=6))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ("mutate", "acyclic", "explore", "classify", "upper-member", "tropical",
         "diffcomb", "verify-cell", "tp-check")
    ))
    if command == "diffcomb":
        size = draw(st.integers(0, 6).map(str) | st.sampled_from(("1_0", "-1", " 1 ")))
        return ["diffcomb", "--size", size]
    if command == "verify-cell":
        return ["verify-cell", "--type", "A2", "--word", draw(_a2_word),
                "--samples", draw(_count), "--rng-seed", draw(_count),
                "--closed-forms",
                draw(st.sampled_from(("auto", "open-cell-a2", "coxeter", "none")))]
    if command == "tp-check":
        return ["tp-check", "--type", "A2", "--word", draw(_a2_word),
                "--samples", draw(_count), "--clusters", draw(_count),
                "--rng-seed", draw(_count)]
    if command == "mutate":
        directions = draw(
            st.lists(st.integers(1, 3) | st.integers(-1, 4), max_size=3).map(
                lambda ks: " ".join(map(str, ks))
            )
            | st.sampled_from(("1_0", "١", "1,2", "+1"))
        )
        return ["mutate", "--matrix", draw(_matrix_arg()), "--directions", directions]
    if command == "acyclic":
        return ["acyclic", "--matrix", draw(_matrix_arg(max_rank=4))]
    if command == "explore":
        cap = draw(st.integers(0, 20).map(str) | st.sampled_from(("-1", "x")))
        # entries of at most 1 keep 20 seeds' Laurent expansions small
        return ["explore", "--seed", draw(_matrix_arg(entries=1)), "--max-seeds", cap]
    if command == "classify":
        cap = draw(st.integers(0, 50).map(str) | st.sampled_from(("-1", "1.5")))
        return ["classify", "--matrix", draw(_matrix_arg(max_rank=4)),
                "--node-cap", cap]
    if command == "upper-member":
        rows = draw(_matrix())
        num = draw(_laurent_arg(len(rows)))
        return ["upper-member", "--seed", json.dumps(rows), "--num", num]
    rank3 = _matrix(max_rank=3, entries=3, min_rank=3).map(json.dumps)
    markov = st.just(json.dumps(MARKOV))
    argv = ["tropical", "--seed", draw(st.one_of(markov, markov, rank3, _matrix_arg()))]
    if draw(st.booleans()):
        return argv + ["--delta", draw(_rationals), "--radius", draw(_count)]
    return argv + ["--nu", draw(_rationals), "--depth", draw(_count)]


@settings(max_examples=225, derandomize=True, deadline=None)
@given(_argv())
def test_cli_honours_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64), (argv, code, err.getvalue())
    if code == 1:
        json.loads(out.getvalue())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    _broken_matrix(),
    st.booleans(),
    st.sampled_from((
        ["mutate", "--directions", "", "--matrix"],
        ["mutate", "--directions", "1", "--matrix"],
        ["acyclic", "--matrix"],
        ["classify", "--matrix"],
        ["explore", "--seed"],
        ["upper-member", "--num", '{"vars": [], "terms": []}', "--seed"],
        ["straighten", "--poly", '{"vars": [], "terms": []}', "--matrix"],
        ["tropical", "--nu", "1,1,1", "--seed"],
        ["tropical", "--delta", "0,0,1", "--seed"],
    )),
)
def test_broken_sign_pattern_is_never_an_answer(rows, named, command):
    """A principal part that is not sign-skew-symmetric is an error in
    every command that reads a matrix: never exit 0 or 1."""
    matrix = json.dumps({"btilde": rows} if named else rows)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + [matrix])
    assert code == 2 and out.getvalue() == "", (command, matrix, code)
    assert err.getvalue().startswith("error: SignSkewSymmetryLost: "), err.getvalue()


# every reduced word of A2; a double word interleaves one as the negative
# subword with one as the positive subword
_A2_REDUCED = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2))


@st.composite
def _valid_a2_word(draw):
    neg = [-x for x in draw(st.sampled_from(_A2_REDUCED))]
    pos = list(draw(st.sampled_from(_A2_REDUCED)))
    word = []
    while neg or pos:
        take_neg = bool(neg) and (not pos or draw(st.booleans()))
        word.append((neg if take_neg else pos).pop(0))
    return " ".join(map(str, word))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    _valid_a2_word(),
    st.sampled_from(("auto", "open-cell-a2", "coxeter", "none")),
    st.integers(1, 3),
    st.integers(0, 50),
)
def test_verify_cell_never_false_on_valid_a2_words(word, choice, samples, rng_seed):
    """The identities hold on every valid word, and closed forms meant for
    another word are a usage error, so verify-cell never exits 1."""
    argv = ["verify-cell", "--type", "A2", "--word", word, "--samples", str(samples),
            "--rng-seed", str(rng_seed), "--closed-forms", choice]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 64), (argv, code, out.getvalue(), err.getvalue())
