"""Upper bounds on code size.  Everything here is exact integer or
rational arithmetic, floats are never used.

johnson_bound is the classical nested-floor bound lifted to the u x v
grid.  jstar sharpens it for weight 4 and correlation 2 using parity
obstructions; the congruence cases below are mutually exclusive, which
jstar asserts on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import _check_grid, _check_params

JOHNSON = "JOHNSON"
U7_11_V2 = "U7_11_V2"
MOD6_GENERAL = "MOD6_GENERAL"
MOD12_4_8_VEVEN = "MOD12_4_8_VEVEN"
CASE_A = "CASE_A"
CASE_B = "CASE_B"

JSTAR_CASES = (JOHNSON, U7_11_V2, MOD6_GENERAL, MOD12_4_8_VEVEN, CASE_A, CASE_B)

CLASS1 = "CLASS1"
CLASS2 = "CLASS2"
CLASS3 = "CLASS3"
EXCLUDED_COR5_5 = "EXCLUDED_COR5_5"
NOT_ADMISSIBLE = "NOT_ADMISSIBLE"

PERFECT_CLASSES = (CLASS1, CLASS2, CLASS3, EXCLUDED_COR5_5, NOT_ADMISSIBLE)


def _inner(n: int, k: int, lam: int) -> int:
    """The nested floor product: working from the innermost level out,
    multiply by (n - i) and floor-divide by (k - i) for i = lam .. 1."""
    x = 1
    for i in range(lam, 0, -1):
        x = x * (n - i) // (k - i)
    return x


def johnson_bound(u: int, v: int, k: int, lam: int) -> int:
    _check_params(u, v, k, lam)
    return u * _inner(u * v, k, lam) // k


def j1(n: int, k: int, lam: int) -> Fraction:
    """The single-row bound before the outermost floor, kept exact."""
    _check_params(1, n, k, lam)
    return Fraction(_inner(n, k, lam), k)


def lifting_equal(u: int, v: int, k: int, lam: int) -> bool:
    """Whether the grid bound is exactly u times the single-row bound.

    True exactly when the fractional part of j1 is below 1/u.  Both
    sides of that equivalence are computed and cross-asserted.
    """
    _check_params(u, v, k, lam)
    n = u * v
    frac = j1(n, k, lam) - johnson_bound(1, n, k, lam)
    predicted = frac < Fraction(1, u)
    direct = johnson_bound(u, v, k, lam) == u * johnson_bound(1, n, k, lam)
    if predicted != direct:
        raise AssertionError("lifting criterion disagrees with the bounds at %r"
                             % ((u, v, k, lam),))
    return predicted


def jstar(u: int, v: int) -> tuple:
    """Sharpened bound for k=4, lambda=2.  Returns (value, case)."""
    _check_grid(u, v)
    n = u * v
    x = _inner(n, 4, 2)
    in_a = u % 12 == 0 and v % 6 in (2, 4)
    in_b = n % 12 == 0 and v % 6 == 0
    hits = []
    if u % 12 in (7, 11) and v == 2:
        hits.append((U7_11_V2, johnson_bound(u, v, 4, 2) - 1))
    if n % 6 == 0 and not in_a and not in_b:
        hits.append((MOD6_GENERAL, u * (x - 1) // 4))
    if n % 12 in (4, 8) and v % 2 == 0:
        hits.append((MOD12_4_8_VEVEN, u * (x - 1) // 4))
    if in_a:
        hits.append((CASE_A, u * (x - 1) // 4 - 1))
    if in_b:
        hits.append((CASE_B, u * (x - 2) // 4))
    if len(hits) > 1:
        raise AssertionError("overlapping jstar cases at (%d,%d): %r" % (u, v, hits))
    if hits:
        case, value = hits[0]
    else:
        case, value = JOHNSON, johnson_bound(u, v, 4, 2)
    if value > johnson_bound(u, v, 4, 2):
        raise AssertionError("jstar %d exceeds the Johnson bound at (%d,%d)" % (value, u, v))
    return value, case


def perfect_class(u: int, v: int) -> str:
    """Classify (u, v) by whether a perfect weight-4 code can exist.

    The raw necessary conditions are uv = 2 or 4 (mod 6) together with
    24 | u(uv-1)(uv-2).  They hold exactly when one of the congruence
    classes below applies, which is asserted.  The fourth class is
    known to be empty and is reported as excluded.
    """
    _check_grid(u, v)
    n = u * v
    admissible = n % 6 in (2, 4) and u * (n - 1) * (n - 2) % 24 == 0
    if u % 12 in (1, 5) and v % 24 in (2, 10):
        cls = CLASS1
    elif u % 12 in (7, 11) and v % 24 in (14, 22):
        cls = CLASS2
    elif u % 6 in (2, 4) and v % 6 in (1, 5):
        cls = CLASS3
    elif u % 12 in (4, 8) and v % 6 in (2, 4):
        cls = EXCLUDED_COR5_5
    else:
        cls = NOT_ADMISSIBLE
    if (cls != NOT_ADMISSIBLE) != admissible:
        raise AssertionError("class %s disagrees with admissibility at (%d,%d)" % (cls, u, v))
    return cls


@dataclass(frozen=True)
class BoundReport:
    u: int
    v: int
    k: int
    lam: int
    johnson: int
    j1_num: int
    j1_den: int
    lifting_equal: bool
    jstar: int | None
    jstar_case: str | None
    perfect: str | None


def bound_report(u: int, v: int, k: int, lam: int) -> BoundReport:
    """Everything the bounds machinery knows about one parameter set.
    The sharpened fields are only defined for k=4, lambda=2."""
    _check_params(u, v, k, lam)
    frac = j1(u * v, k, lam)
    if (k, lam) == (4, 2):
        js, case = jstar(u, v)
        cls = perfect_class(u, v)
    else:
        js, case, cls = None, None, None
    return BoundReport(
        u=u, v=v, k=k, lam=lam,
        johnson=johnson_bound(u, v, k, lam),
        j1_num=frac.numerator,
        j1_den=frac.denominator,
        lifting_equal=lifting_equal(u, v, k, lam),
        jstar=js,
        jstar_case=case,
        perfect=cls,
    )
