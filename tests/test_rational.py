import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtseq import (
    InvalidRatioError,
    Scale,
    builtin_scale,
    builtin_scales,
    cents,
    octave_normalize,
    ratio,
)
from dtseq.rational import as_ratio, ratio_text
from support import int_digit_limit, near_one

ratios = st.builds(Fraction, st.integers(1, 64), st.integers(1, 64))


@pytest.mark.parametrize("num,den,expect", [
    (3, 2, Fraction(3, 2)),
    (6, 4, Fraction(3, 2)),
    (12, 12, Fraction(1)),
])
def test_ratio_reduces(num, den, expect):
    r = ratio(num, den)
    assert (r.numerator, r.denominator) == (expect.numerator, expect.denominator)


@pytest.mark.parametrize("num,den", [(5, 0), (0, 3), (-3, 2), (3, -2), (0, 0)])
def test_ratio_rejects_non_positive(num, den):
    with pytest.raises(InvalidRatioError):
        ratio(num, den)


def test_ratio_rejects_non_integer():
    with pytest.raises(InvalidRatioError):
        ratio(1.5, 2)  # type: ignore[arg-type]


@given(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 100))
def test_ratio_common_factor_invariance(a, b, c):
    assert ratio(a * c, b * c) == ratio(a, b)


@pytest.mark.parametrize("a,b,product", [
    ((5, 4), (3, 2), (15, 8)),
    ((3, 2), (2, 3), (1, 1)),
    ((9, 8), (4, 3), (3, 2)),
])
def test_multiplication_examples(a, b, product):
    assert ratio(*a) * ratio(*b) == ratio(*product)


@given(ratios, ratios, ratios)
def test_multiplication_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@pytest.mark.parametrize("value,expect", [
    (Fraction(3, 2), Fraction(3, 2)),
    (Fraction(3, 1), Fraction(3, 2)),
    (Fraction(5, 6), Fraction(5, 3)),
    (Fraction(1, 1), Fraction(1, 1)),
    (Fraction(2, 1), Fraction(1, 1)),
])
def test_octave_normalize_examples(value, expect):
    assert octave_normalize(value) == expect


@given(ratios)
def test_octave_normalize_range_and_relation(r):
    n = octave_normalize(r)
    assert 1 <= n < 2
    # n differs from r by an exact power of two (reduced, so one side is 1)
    q = n / r
    assert (q.numerator & (q.numerator - 1)) == 0
    assert (q.denominator & (q.denominator - 1)) == 0


def test_cents_examples():
    assert cents(Fraction(1)) == 0.0
    assert cents(Fraction(2)) == pytest.approx(1200.0)
    # frozen from 1200 * log2(1.5) evaluated independently (mpmath, 50 digits)
    assert cents(Fraction(3, 2)) == pytest.approx(701.9550008653874, abs=1e-3)


@given(ratios, ratios)
def test_cents_additive_under_multiplication(a, b):
    assert math.isclose(cents(a * b), cents(a) + cents(b),
                        rel_tol=1e-9, abs_tol=1e-9)


def test_builtin_scales_contents():
    by_name = {s.name: s for s in builtin_scales()}
    assert by_name["major-triad"].keys == (Fraction(1), Fraction(5, 4), Fraction(3, 2))
    assert by_name["minor-triad"].keys == (Fraction(1), Fraction(6, 5), Fraction(3, 2))
    assert by_name["just-major-7"].keys == tuple(
        Fraction(s) for s in ("1", "9/8", "5/4", "4/3", "3/2", "5/3", "15/8", "2"))
    # the published sequence is kept verbatim, 5/6 included
    assert by_name["paper-major"].keys == tuple(
        Fraction(s) for s in ("1", "9/8", "5/4", "4/3", "3/2", "5/6", "15/8", "2"))
    assert builtin_scale("major-triad") is by_name["major-triad"]


def test_builtin_scales_satisfy_scale_invariants():
    for scale in builtin_scales():
        assert len(scale.keys) >= 1
        assert len(set(scale.keys)) == len(scale.keys)
        assert all(k > 0 for k in scale.keys)
        assert [scale[i] for i in range(len(scale.keys))] == list(scale.keys)
        # reconstruction succeeds, so every key passes validation
        Scale(scale.name, scale.keys)


def test_scale_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Scale("empty", [])
    with pytest.raises(ValueError):
        Scale("dup", [Fraction(3, 2), Fraction(6, 4)])
    with pytest.raises(InvalidRatioError):
        Scale("neg", [Fraction(-1, 2)])
    with pytest.raises(ValueError):
        Scale("bad name!", [Fraction(1)])


@pytest.mark.parametrize("text", ["x", "3/", "1/0", "", "3//2"])
def test_as_ratio_rejects_a_non_ratio_string(text):
    with pytest.raises(InvalidRatioError) as exc:
        as_ratio(text)
    assert str(exc.value) == f"not a ratio: {text!r}"


@pytest.mark.parametrize("value,text", [
    (Fraction(3, 2), "3/2"), (Fraction(6, 4), "3/2"), (Fraction(2), "2/1"),
    (Fraction(1, 3), "1/3"),
])
def test_ratio_text_is_reduced_num_over_den(value, text):
    assert ratio_text(value) == text


@given(st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)))
def test_ratio_text_reads_back(r):
    num, den = ratio_text(r).split("/")
    assert Fraction(int(num), int(den)) == r


def test_ratio_text_has_no_digit_limit():
    r = as_ratio(near_one(700))  # 701-digit parts
    with int_digit_limit(640):
        with pytest.raises(ValueError):
            str(r.numerator)
        assert ratio_text(r) == near_one(700)


# numbers beyond the int-to-string digit limit, which repr() and str() refuse
LONG = "1" + "0" * 5000


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: as_ratio(-10**5000), "ratio must be positive: -" + LONG,
                 id="as_ratio"),
    pytest.param(lambda: ratio(-10**5000, 1), f"ratio must be positive: -{LONG}/1",
                 id="ratio"),
    pytest.param(lambda: ratio(10**5000, 1.5),
                 f"ratio parts must be integers, got {LONG}/1.5", id="ratio-float-part"),
    pytest.param(lambda: Scale("s", [-10**5000]), "ratio must be positive: -" + LONG,
                 id="Scale"),
])
def test_long_numbers_are_written_in_the_message(build, message):
    with pytest.raises(InvalidRatioError) as exc:
        build()
    assert str(exc.value) == message
