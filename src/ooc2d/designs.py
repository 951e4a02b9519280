"""Layered group divisible designs and their verifiers.

A fan design with s layers lives on a pointed set partitioned into
groups.  The terminal blocks together with every layer block of size
three or more cover each triple that meets two or more groups exactly
once and never cover a triple inside a single group.  Each layer on
its own covers every cross-group pair exactly once.  With s = 0 only
the triple condition remains.

Two universe shapes appear:

* cyclic: points (x, y, j) with x indexing the group, y inside the
  group fibre, j in Z_h; the action adds 1 to j.  Groups are fixed
  setwise by the action.
* regular: points (row, col) on a u x v grid; the action adds 1 to
  col modulo v.  Groups are the column classes modulo v // h, so the
  action permutes the groups cyclically.

H designs are the transversal relatives: on I_n x I_l x Z_h with
groups the x-fibres, every t-subset meeting t distinct groups is
covered exactly once.

A design encodes its blocks once, when it is built, and keeps each
family's sorted integer codes (see core) for its verifier and the
constructions; fan_shift and develop_family encode the blocks handed
to them through the same check.  A fan is developed once, and every
strict, action and covering question reads that kept development.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, gcd
from typing import NamedTuple

from .core import (Point, _check_ints, _cover_counts, _cover_miss, _develop, _image, _kept,
                   _orbit, _set)

CYCLIC = "cyclic"
REGULAR = "regular"

INF = -1  # fixed point marker in rotational quadruple systems


@dataclass(frozen=True)
class GroupType:
    """Multiset of group sizes, stored as (size, count) pairs in
    descending size order."""

    parts: tuple

    def __post_init__(self):
        for size, count in self.parts:
            if size < 1 or count < 1:
                raise ValueError("bad group type part (%d, %d)" % (size, count))
        sizes = [size for size, _ in self.parts]
        if sizes != sorted(sizes, reverse=True) or len(set(sizes)) != len(sizes):
            raise ValueError("parts must be sorted descending with distinct sizes")

    def __str__(self) -> str:
        return " ".join("%d^%d" % (size, count) for size, count in self.parts)


def group_type(sizes) -> GroupType:
    return GroupType(parts=tuple(sorted(Counter(sizes).items(), reverse=True)))


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    detail: str | None = None


@dataclass(frozen=True)
class FanDesign:
    s: int
    shape: str
    h: int
    layers: tuple  # s families of blocks
    terminal: tuple
    g_list: tuple = ()  # cyclic shape only
    u: int = 0  # regular shape only
    v: int = 0
    developed: bool = False  # blocks listed in full, not one per orbit

    def __post_init__(self):
        if self.shape not in (CYCLIC, REGULAR):
            raise ValueError("unknown universe shape %r" % (self.shape,))
        _check_ints(s=self.s, h=self.h, u=self.u, v=self.v)
        for g in self.g_list:
            _check_ints(g_list=g)
        if self.s != len(self.layers):
            raise ValueError("s=%d but %d layers given" % (self.s, len(self.layers)))
        if self.h < 1:
            raise ValueError("h must be positive")
        if self.shape == CYCLIC:
            if not self.g_list or any(g < 1 for g in self.g_list):
                raise ValueError("cyclic shape needs positive fibre sizes")
            if self.u or self.v:
                raise ValueError("u, v are for the regular shape")
        else:
            if self.u < 1 or self.v < 1:
                raise ValueError("regular shape needs positive u, v")
            if self.v % self.h:
                raise ValueError("h=%d must divide v=%d" % (self.h, self.v))
            if self.g_list:
                raise ValueError("g_list is for the cyclic shape")
        _check_universe(self, self.families())
        for b in chain.from_iterable(self.families()):
            if len(b) < 2:
                raise ValueError("block %r has fewer than 2 points" % (b,))

    def families(self) -> tuple:
        return self.layers + (self.terminal,)

    def points(self) -> list:
        if self.shape == CYCLIC:
            return _fibre_points(self.g_list, self.h)
        return [Point(i, j) for i in range(self.u) for j in range(self.v)]

    def group_of(self, p) -> int:
        if self.shape == CYCLIC:
            return p[0]
        return p[1] % (self.v // self.h)

    @property
    def period(self) -> int:
        """Order of the acting cyclic group."""
        return self.h if self.shape == CYCLIC else self.v

    def group_sizes(self) -> GroupType:
        if self.shape == CYCLIC:
            return group_type(g * self.h for g in self.g_list)
        return group_type([self.u * self.h] * (self.v // self.h))


def _fibre_points(sizes, h: int) -> list:
    """The points (x, y, j), y < sizes[x], j in Z_h, in code order."""
    return [(x, y, j) for x, g in enumerate(sizes) for y in range(g) for j in range(h)]


def _encode(d, b) -> tuple:
    """The codes of block b, refused unless its points are in d.points()
    with int coordinates (True and 1.0 equal 1 and hash as 1, so the
    lookup alone would take them), sorted and distinct: d.points() is
    sorted, so b is when its codes increase."""
    index, codes = d._index, []
    for p in b:
        e = index.get(p)
        if e is None or not all(type(x) is int for x in (p if isinstance(p, tuple) else (p,))):
            raise ValueError("block %r has point %r outside the universe of int points" % (b, p))
        codes.append(e)
    if any(x >= y for x, y in zip(codes, codes[1:])):
        raise ValueError("block %r is not sorted or repeats a point" % (b,))
    return tuple(codes)


def _check_universe(d, families) -> None:
    """Keep d's universe, each point's code (its index in d.points()) and
    each family's blocks as codes, refusing the first block _encode
    refuses; not fields, so ==, repr and hash ignore them."""
    points = d.points()
    _set(d, _points=points, _index={p: e for e, p in enumerate(points)})
    _set(d, _codes=tuple([tuple([_encode(d, b) for b in fam]) for fam in families]))


def fan_shift(d: FanDesign, block, delta: int = 1):
    return tuple(d._points[e] for e in _image(_encode(d, tuple(sorted(block))), delta, d.period))


def _develop_codes(d: FanDesign, blocks, codes) -> tuple:
    """develop_family on the sorted codes of blocks, which name a block in
    a problem: (images, stabilizer orders, problem)."""
    if d.developed:
        fam_set = set(codes)
        if len(fam_set) != len(codes):
            return codes, (), "duplicate block in developed family"
        for b, c in zip(blocks, codes):
            if _image(c, 1, d.period) not in fam_set:
                return codes, (), "family not closed under the action at %r" % (b,)
        return codes, tuple(_orbit(c, d.period)[1] for c in codes), None
    images, stabs, clash = _develop(codes, d.period)
    problem = None if clash is None else "orbit collision at %r" % (
        tuple(d._points[e] for e in clash),)
    return images, tuple(stabs), problem


def develop_family(d: FanDesign, blocks) -> tuple:
    """(developed blocks, stabilizer orders, collision detail or None).

    For base input each orbit is expanded with duplicates removed
    inside the orbit; a block reappearing from a different base block
    is a collision.  Developed input is returned as is after checking
    the family is closed under the action.  Each block, once sorted, is
    refused as d's constructor refuses its blocks.
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    images, stabs, problem = _develop_codes(d, blocks, [_encode(d, b) for b in blocks])
    if d.developed:
        return blocks, stabs, problem
    return [tuple(d._points[e] for e in img) for img in images], stabs, problem


def _short_orbit(d: FanDesign, stabilizers) -> DesignReport | None:
    """The first block, family by family, whose stabilizer is not trivial."""
    for idx, (fam, stabs) in enumerate(zip(d.families(), stabilizers)):
        for b, order in zip(fam, stabs):
            if order != 1:
                return DesignReport(False, "family %d: block %r has stabilizer of order %d"
                                    % (idx, b, order))
    return None


def _develop_families(d: FanDesign) -> tuple:
    """(developed families, their stabilizer orders, failure or None),
    family by family up to the first family that does not develop."""
    developed, stabilizers = [], []
    for idx, (fam, codes) in enumerate(zip(d.families(), d._codes)):
        full, stabs, problem = _develop_codes(d, fam, codes)
        if problem:
            return developed, stabilizers, DesignReport(False, "family %d: %s" % (idx, problem))
        developed.append(full)
        stabilizers.append(stabs)
    return developed, stabilizers, None


class _FanDevelopment(NamedTuple):  # a fan's one development, kept by _fan_development
    families: tuple  # each family's developed codes, up to the first failure
    stabilizers: tuple  # the stabilizer orders of those families' blocks
    failure: DesignReport | None  # the first family that does not develop
    report: DesignReport  # verify_fan's report without strict


def verify_fan(d: FanDesign, strict: bool = False) -> DesignReport:
    """Check the covering conditions over the developed families.

    With strict also demand that every block has a trivial stabilizer
    under the design's action, so every orbit is full.  A fan is
    developed once, and every strict, action and covering question
    reads that development; a family that does not develop is reported
    first, then the covering check, then a short orbit.
    """
    dev = _fan_development(d)
    return (strict and dev.report.ok and _short_orbit(d, dev.stabilizers)) or dev.report


@_kept
def _fan_development(d: FanDesign) -> _FanDevelopment:
    """d's families developed once, with the covering report on them."""
    developed, stabilizers, failure = _develop_families(d)
    report = failure or _fan_cover(d, developed)
    return _FanDevelopment(tuple(developed), tuple(stabilizers), failure, report)


def _fan_cover(d: FanDesign, developed: list) -> DesignReport:
    """verify_fan's report without strict, on d's developed families."""
    points = d._points
    group = [d.group_of(p) for p in points]

    def want(sub):
        return 1 if len({group[e] for e in sub}) >= 2 else 0

    # the action maps groups onto groups, so an input block covers a
    # t-subset inside one group exactly when one of its images does;
    # size-2 blocks contribute no triples, so no filtering is needed
    checks = [("triple", 3, chain.from_iterable(developed), chain.from_iterable(d._codes))]
    checks += [("layer %d: pair" % idx, 2, full, codes)
               for idx, (codes, full) in enumerate(zip(d._codes[:-1], developed))]
    for name, t, blocks, inputs in checks:
        strays = any(not want(sub) for codes in inputs for sub in combinations(codes, t))
        n_want = comb(len(points), t) - sum(n * comb(g, t) for g, n in d.group_sizes().parts)
        bad = _cover_miss(_cover_counts(blocks, t), len(points), t, want, n_want, strays)
        if bad:
            sub, got, wanted = bad
            return DesignReport(False, "%s %r covered %d times, expected %d"
                                % (name, tuple(points[e] for e in sub), got, wanted))
    return DesignReport(True)


def _verify_action(d: FanDesign, shape: str, strict: bool) -> DesignReport:
    # with strict, a short orbit comes before a later family's failure
    if d.shape != shape:
        raise ValueError("expected %s shape, got %s" % (shape, d.shape))
    dev = _fan_development(d)
    return (strict and _short_orbit(d, dev.stabilizers)) or dev.failure or DesignReport(True)


def verify_h_cyclic(d: FanDesign, strict: bool = True) -> DesignReport:
    """The +1 action on the last coordinate maps every family onto
    itself; with strict also demand trivial stabilizers."""
    return _verify_action(d, CYCLIC, strict)


def verify_regular(d: FanDesign, strict: bool = True) -> DesignReport:
    return _verify_action(d, REGULAR, strict)


@dataclass(frozen=True)
class HDesign:
    """Transversal t-design on I_n x I_l x Z_h with groups the
    x-fibres, presented by base blocks under the Z_h action."""

    n: int
    l: int
    h: int
    t: int
    base_blocks: tuple

    def __post_init__(self):
        _check_ints(n=self.n, l=self.l, h=self.h, t=self.t)
        if self.t < 1:
            raise ValueError("need t >= 1, got t=%d" % self.t)
        if self.n < self.t or self.l < 1 or self.h < 1:
            raise ValueError("bad H design parameters")
        _check_universe(self, (self.base_blocks,))
        for b in self.base_blocks:
            if len({x for x, _, _ in b}) != len(b):
                raise ValueError("block %r is not transversal" % (b,))

    @property
    def g(self) -> int:
        return self.l * self.h

    @property
    def period(self) -> int:
        return self.h

    def points(self) -> list:
        return _fibre_points((self.l,) * self.n, self.h)


@_kept
def verify_h_design(d: HDesign) -> DesignReport:
    """Exact cover of the transverse t-subsets by the developed blocks.

    A valid design here is automatically strict: a block with a
    nontrivial stabilizer would repeat one of its own t-subsets.
    """
    points = d._points
    developed, stabs, clash = _develop(d._codes[0], d.h)
    if clash is not None:
        return DesignReport(False, "orbit collision at %r" % (tuple(points[e] for e in clash),))

    # base blocks are transversal and the action keeps x, so no
    # developed block covers a t-subset that wants 0
    bad = _cover_miss(_cover_counts(developed, d.t), len(points), d.t,
                      lambda sub: 1 if len({e // d.g for e in sub}) == d.t else 0,
                      comb(d.n, d.t) * d.g ** d.t)
    if bad:
        sub, got, wanted = bad
        return DesignReport(False, "t-subset %r covered %d times, expected %d"
                            % (tuple(points[e] for e in sub), got, wanted))
    for b, stab in zip(d.base_blocks, stabs):
        if stab != 1:
            raise AssertionError("transversal block %r has a nontrivial stabilizer" % (b,))
    return DesignReport(True)


@dataclass(frozen=True)
class RoSQSDesign:
    """Quadruple system on Z_{n-1} plus a fixed point, invariant under
    +1 on the cyclic part.  The fixed point is written INF (-1)."""

    n: int
    base_blocks: tuple

    def __post_init__(self):
        _check_ints(n=self.n)
        if self.n < 4:
            raise ValueError("need at least 4 points")
        _check_universe(self, (self.base_blocks,))
        for b in self.base_blocks:
            if len(b) != 4:
                raise ValueError("block %r has %d points, expected 4" % (b, len(b)))

    def points(self) -> list:
        """INF, then Z_{n-1}: the code of x is x + 1."""
        return [INF, *range(self.n - 1)]

    def b1(self) -> tuple:
        """Base blocks through the fixed point."""
        return tuple(b for b in self.base_blocks if INF in b)

    def b2(self) -> tuple:
        return tuple(b for b in self.base_blocks if INF not in b)


def _with_inf(cyclic: tuple) -> tuple:
    """A block from its cyclic part: blocks have four points, so a cyclic
    part of three lost the fixed point."""
    return (INF,) * (4 - len(cyclic)) + cyclic


def rosqs_shift(block, delta: int, m: int):
    """block moved by delta under Z_m, INF fixed; refuses a point that is
    neither INF nor an int in Z_m, and a repeated point."""
    for x in block:
        if type(x) is not int or not (x == INF or 0 <= x < m):
            raise ValueError("block %r has point %r outside the universe of int points"
                             % (block, x))
    if len(set(block)) != len(block):
        raise ValueError("block %r repeats a point" % (block,))
    cyclic = tuple(sorted(x for x in block if x != INF))
    return (INF,) * (len(block) - len(cyclic)) + _image(cyclic, delta, m)


@_kept
def verify_rosqs(d: RoSQSDesign) -> DesignReport:
    if d.n % 6 not in (2, 4):
        return DesignReport(False, "no quadruple system on %d points" % d.n)
    # the kernel develops the cyclic parts on Z_{n-1}; INF stays put
    cyclic, _, clash = _develop([tuple(x for x in b if x != INF) for b in d.base_blocks],
                                d.n - 1)
    if clash is not None:
        return DesignReport(False, "orbit collision at %r" % (_with_inf(clash),))
    counts = _cover_counts([tuple(x + 1 for x in _with_inf(c)) for c in cyclic], 3)
    bad = _cover_miss(counts, d.n, 3, lambda sub: 1, comb(d.n, 3))
    if bad:
        sub, got, _ = bad
        return DesignReport(False, "triple %r covered %d times"
                            % (tuple(e - 1 for e in sub), got))
    return DesignReport(True)


def _check_gn(g: int, n: int) -> None:
    if g < 1 or n < 3:
        raise ValueError("need g >= 1 and n >= 3")


def admissible_0fg(g: int, n: int, terminal_sizes=(4,)) -> bool:
    """Divisibility conditions necessary for a 0-layer fan design of
    type g^n whose terminal blocks have sizes in terminal_sizes, each
    at least 2 and one at least 3 (without one, every gcd below is 0)."""
    _check_gn(g, n)
    if any(k < 2 for k in terminal_sizes) or all(k < 3 for k in terminal_sizes):
        raise ValueError("terminal sizes must be at least 2 with one at least 3, got %r"
                         % (tuple(terminal_sizes),))
    alpha = gcd(*[k * (k - 1) * (k - 2) for k in terminal_sizes])
    beta = gcd(*[(k - 1) * (k - 2) for k in terminal_sizes])
    gamma = gcd(*[k - 2 for k in terminal_sizes])
    if g * g * n * (n - 1) * (g * n + g - 3) % alpha:
        return False
    if g * (n - 1) * (g * n + g - 3) % beta:
        return False
    if g == 1:
        return n % gamma == 2 % gamma
    return g % gamma == 2 % gamma and g * n % gamma == 2 % gamma


def exists_0fg_quad(g: int, n: int) -> bool:
    """Existence of a 0-layer fan design of type g^n with terminal
    block size 4: either g = 1 with n = 2 or 4 mod 6, or g even with
    3 | g(n-1)(n-2)."""
    _check_gn(g, n)
    if g == 1:
        return n % 6 in (2, 4)
    return g % 2 == 0 and g * (n - 1) * (n - 2) % 3 == 0


def exists_h_design(n: int, g: int) -> bool:
    """Existence of an H design with n groups of size g, block size 4,
    t = 3.  Not defined for n = 3."""
    _check_gn(g, n)
    if n == 3:
        raise ValueError("existence with 3 groups is not settled here")
    if n == 5:
        return g % 2 == 0 and g != 2 and g % 48 not in (10, 26)
    return g * n % 2 == 0 and g * (n - 1) * (n - 2) % 3 == 0
