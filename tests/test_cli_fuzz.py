"""Property tests of the CLI contract: every `hodge` input of the bundle
grammar on any ambient with k < n <= 7, and every `bott` and `lr` weight
text (well-formed, truncated, non-numeric or not dominant), ends in a
documented exit code with at most one line on stderr and no traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from roofcalc.cli import main

BLOCKS = st.sampled_from(["U", "UD", "Q", "QD"])
LEAVES = st.one_of(
    BLOCKS,
    st.integers(-2, 3).map(lambda t: f"O({t})"),
    st.tuples(st.lists(st.integers(-1, 2), min_size=1, max_size=3), BLOCKS).map(
        lambda lb: f"S[{','.join(map(str, lb[0]))}]{lb[1]}"
    ),
)


def _compound(inner):
    power = st.tuples(st.sampled_from(["Sym", "Wedge"]), st.integers(0, 3), inner)
    return st.one_of(
        st.tuples(inner, inner).map("+".join),
        st.tuples(inner, inner).map("*".join),
        power.map(lambda p: f"{p[0]}^{p[1]}({p[2]})"),
        inner.map(lambda e: f"Dual({e})"),
        inner.map(lambda e: f"({e})"),
    )


EXPRESSIONS = st.recursive(LEAVES, _compound, max_leaves=4)
# well-formed text, and its truncations for the parse-error exits
BUNDLES = st.one_of(
    EXPRESSIONS,
    st.tuples(EXPRESSIONS, st.integers(0, 30)).map(lambda et: et[0][: et[1]]),
)


@st.composite
def hodge_argv(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(-1, n - 1))
    argv = ["hodge", f"--k={k}", f"--n={n}", "--bundle", draw(BUNDLES)]
    return argv + (["--diamond"] if draw(st.booleans()) else [])


# weight texts: entries in [-3, 3], at most 4 per block, plus truncations
# and non-numeric pieces for the parse-error exits
NUMBERS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
WEIGHTS = st.one_of(NUMBERS, st.sampled_from(["", "x", "1.5", "2,", ",1", "1,,0", "|"]))


def _truncations(texts):
    return st.one_of(
        texts, st.tuples(texts, st.integers(0, 20)).map(lambda tc: tc[0][: tc[1]])
    )


def _options(draw, **values):
    """Each value in the `--flag=value` form or as a separate argument; a
    separate value may start with "-"."""
    argv = []
    for flag, value in values.items():
        if draw(st.booleans()):
            argv.append(f"--{flag}={value}")
        else:
            argv += [f"--{flag}", str(value)]
    return argv


@st.composite
def bott_argv(draw):
    text = draw(_truncations(st.tuples(WEIGHTS, WEIGHTS).map("|".join)))
    upper, _, lower = text.partition("|")
    # mostly the ambient the blocks name, sometimes any other
    k = draw(st.one_of(st.just(upper.count(",") + 1), st.integers(-1, 4)))
    n = draw(st.one_of(st.just(k + lower.count(",") + 1), st.integers(-1, 8)))
    return ["bott"] + _options(draw, k=k, n=n, weight=text)


@st.composite
def lr_argv(draw):
    a, b = draw(_truncations(WEIGHTS)), draw(_truncations(WEIGHTS))
    rank = draw(st.one_of(st.just(a.count(",") + 1), st.integers(-1, 4)))
    return ["lr"] + _options(draw, rank=rank, a=a, b=b)


def _exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in {0, 2, 3, 4, 5}, (argv, code, lines)
    # every value is a well-formed argument, so no usage error
    assert not (lines and lines[0].startswith("usage error")), (argv, lines)
    assert len(lines) <= 1, (argv, lines)
    assert "Traceback" not in err.getvalue(), argv


@settings(max_examples=200, deadline=None)
@given(hodge_argv())
def test_hodge_exits_cleanly(argv):
    _exits_cleanly(argv)


@settings(max_examples=200, deadline=None)
@given(bott_argv())
def test_bott_exits_cleanly(argv):
    _exits_cleanly(argv)


@settings(max_examples=200, deadline=None)
@given(lr_argv())
def test_lr_exits_cleanly(argv):
    _exits_cleanly(argv)
