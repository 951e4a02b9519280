"""Recursive constructions.

Every operation passes each input through the gate files.require once,
before its other preconditions, builds the output, and returns
(output, trace) through _finish, which passes the output through the
same gate.  The gate refuses the wrong kind with "<label> is a <Type>,
not <a kind>" and a failing verdict with "<label>: <detail>", the
detail the command line prints, so an input that fails both its verdict
and a precondition is refused for its verdict.  A report is computed
once per object and kept beside its codes, so an input the catalog or
an earlier step has checked is not developed again; a file that is read
back is a new object and is checked from scratch.  The trace records
labelled block count contributions that must sum to the output's base
block count.  _finish counts the output itself (files.block_count) and
raises AssertionError on a mismatch.  The constructions compute on the
kernel codes of core: a design's blocks are read as the codes its
constructor checked and kept, core._packing takes grid codes, design
blocks are decoded last, and only _glue writes Points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .core import Code, CyclicPacking, Point, _cells_matrix, _grid_block, _image, _orbit, _packing
from .designs import (CYCLIC, INF, REGULAR, FanDesign, HDesign, RoSQSDesign,
                      _fan_development, _fibre_points)
from .files import block_count, require
from .packing import is_perfect


@dataclass(frozen=True)
class ConstructionTrace:
    inputs: tuple
    steps: tuple  # ((label, count), ...)


def _finish(name: str, inputs, steps, output):
    """Verify the output of construction name, check its trace, and
    return both."""
    require(output, "%s output" % name)
    total, count = sum(delta for _, delta in steps), block_count(output)
    if total != count:
        raise AssertionError("trace steps sum to %d, output has %d" % (total, count))
    return output, ConstructionTrace(tuple(inputs), tuple(steps))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trivial_packing(u: int, v: int) -> CyclicPacking:
    return CyclicPacking(u=u, v=v, k=4, t=3, base_blocks=())


def hartman(r: RoSQSDesign, input_label: str = "rotational quadruple system"):
    """Blow a rotational quadruple system on p + 1 points up to a
    perfect packing on the 2 x p grid, p prime, p = 1 mod 6.

    Row 0 carries the cyclic part as is.  Blocks through the fixed
    point lose it to (1, 0).  Each pair inside a fixed-point block
    additionally spawns (p - 1) / 2 blocks picking up two points of
    row 1 spaced by the pair difference.  Finally everything is
    mirrored through (i, x) -> (1 - i, -x).
    """
    require(r, "hartman input", RoSQSDesign)
    p = r.n - 1
    _require(_is_prime(p) and p % 6 == 1, "need n - 1 = %d to be a prime 1 mod 6" % p)

    # grid codes on 2 x p: (0, x) -> x, (1, y) -> p + y
    a1 = [tuple(b) for b in r.b2()]
    a2 = [tuple(x for x in b if x != INF) + (p,) for b in r.b1()]
    a3 = []
    for b in a2:
        for x, y in combinations(b[:-1], 2):
            d = y - x
            for rr in range(1, (p - 1) // 2 + 1):
                a3.append((x, y) + tuple(sorted([p + (2 * rr - 1) * d % p, p + 2 * rr * d % p])))

    def mirror(block):
        return tuple(sorted([(1 - e // p) * p + -e % p for e in block]))

    a1m = [mirror(b) for b in a1]
    a2m = [mirror(b) for b in a2]

    out = _packing(2, p, 4, 3, a1 + a1m + a2 + a2m + a3)
    steps = (
        ("row 0 quadruples", len(a1)),
        ("mirrored row 1 quadruples", len(a1m)),
        ("fixed point blocks", len(a2)),
        ("mirrored fixed point blocks", len(a2m)),
        ("pair difference blocks", len(a3)),
    )
    out, trace = _finish("hartman", [input_label], steps, out)
    _require(is_perfect(out), "hartman output has a nonempty leave")
    return out, trace


def hartman_part_sizes(r: RoSQSDesign) -> tuple:
    """Sizes of the three block families before merging, in the order
    (plain plus mirror, fixed point plus mirror, pair difference): a
    fixed point block has 3 pairs, each spawning (p - 1) / 2 blocks."""
    return (2 * len(r.b2()), 2 * len(r.b1()), 3 * len(r.b1()) * (r.n - 2) // 2)


def filling_1(master: FanDesign, fillers: dict, input_labels=None):
    """Fill each group of a strictly h-cyclic 0-layer fan design with a
    strictly h-cyclic packing on fibre x h, giving a packing on the
    disjoint union of the fibres.

    fillers maps fibre size to the packing used for every group of
    that size.  A missing filler is only allowed when the group is too
    small to hold any block."""
    require(master, "filling_1 master", FanDesign)
    _require(master.shape == CYCLIC, "filling_1 master must use the cyclic shape")
    _require(master.s == 0, "filling_1 master must have no layers")
    k = 4
    for g, filler in fillers.items():
        require(filler, "filling_1 filler for fibre %d" % g, CyclicPacking)
        _require((filler.u, filler.v) == (g, master.h),
                 "filler for fibre %d must live on %dx%d, got %dx%d"
                 % (g, g, master.h, filler.u, filler.v))
        _require((filler.k, filler.t) == (k, 3), "filler must have k=4, t=3")
    for g in set(master.g_list):
        if g not in fillers:
            _require(g * master.h < k,
                     "no filler for fibre size %d and the group can hold blocks" % g)

    # the master's code (off[x] + y) * h + j is the grid code of (off[x] + y, j)
    blocks = list(master._codes[-1])
    offsets = accumulate(master.g_list, initial=0)
    filled = [tuple([e + off * master.h for e in fb])
              for off, g in zip(offsets, master.g_list) if g in fillers
              for fb in fillers[g]._codes]

    out = _packing(sum(master.g_list), master.h, k, 3, blocks + filled)
    labels = input_labels or ["master fan"] + ["filler fibre %d" % g for g in sorted(fillers)]
    steps = (("master blocks", len(blocks)), ("filler blocks", len(filled)))
    return _finish("filling_1", labels, steps, out)


def filling_2(master: FanDesign, filler: CyclicPacking, input_labels=None):
    """Fill the column classes of a strictly regular 0-layer fan design
    with one strictly h-cyclic packing, dilated into the subgroup of
    index v / h.  The full orbit of each dilated block sweeps the
    filler through every column class."""
    require(master, "filling_2 master", FanDesign)
    _require(master.shape == REGULAR, "filling_2 master must use the regular shape")
    _require(master.s == 0, "filling_2 master must have no layers")
    _require(master.u * master.h >= 4, "group size %d is too small" % (master.u * master.h))
    require(filler, "filling_2 filler", CyclicPacking)
    _require((filler.u, filler.v) == (master.u, master.h),
             "filler must live on %dx%d, got %dx%d"
             % (master.u, master.h, filler.u, filler.v))
    _require((filler.k, filler.t) == (4, 3), "filler must have k=4, t=3")

    step, h, v = master.v // master.h, master.h, master.v
    # a regular fan's code row * v + col is its grid code
    blocks = list(master._codes[-1])
    blocks += [tuple([e // h * v + e % h * step for e in fb]) for fb in filler._codes]
    out = _packing(master.u, master.v, 4, 3, blocks)
    labels = input_labels or ["master fan", "filler"]
    steps = (("master blocks", len(master.terminal)),
             ("dilated filler blocks", filler.num_base_blocks))
    return _finish("filling_2", labels, steps, out)


def _check_weighting_ingredients(sizes, layer_fans: dict, terminal_h: dict, t: int):
    """Common validation, H ingredients of strength t; returns (g2, h2,
    s2) shared by the ingredients."""
    layer_sizes, terminal_sizes = sizes
    shape = None
    for size in sorted(layer_sizes):
        _require(size in layer_fans, "no ingredient fan for layer blocks of size %d" % size)
        fan = layer_fans[size]
        require(fan, "ingredient for layer blocks of size %d" % size, FanDesign)
        _require(fan.shape == CYCLIC, "ingredient fans must use the cyclic shape")
        _require(len(fan.g_list) == size and len(set(fan.g_list)) == 1,
                 "ingredient fan for size %d must have %d equal groups" % (size, size))
        sig = (fan.g_list[0], fan.h, fan.s)
        _require(shape is None or sig == shape,
                 "ingredient fans disagree on (g2, h2, s): %r vs %r" % (sig, shape))
        shape = sig
    for size in sorted(terminal_sizes):
        _require(size in terminal_h, "no ingredient H design for size %d" % size)
        hd = terminal_h[size]
        require(hd, "H ingredient for size %d" % size, HDesign)
        _require(hd.n == size and hd.t == t,
                 "H ingredient for size %d has n=%d, t=%d" % (size, hd.n, hd.t))
        shape = shape or (hd.l, hd.h, 0)
        _require((hd.l, hd.h) == shape[:2], "H ingredient (g2, h2) %r disagrees with %r"
                 % ((hd.l, hd.h), shape[:2]))
    return shape


def _glue(mblock, iblock, g1: int, step: int) -> tuple:
    """Ingredient block on the points of a master block: ingredient
    group a lands on the a-th point of the master block, whose last two
    coordinates (fibre row, column) grow by y2 * g1 and j2 * step.  A
    point with only those two coordinates is a grid Point."""
    out = []
    for a, y2, j2 in iblock:
        *x, y, j = mblock[a]
        q = (*x, y + y2 * g1, j + j2 * step)
        out.append(q if x else Point(*q))
    return tuple(sorted(out))


def _weighting(name: str, shape: str, master: FanDesign, layer_fans: dict, terminal_h: dict,
               input_labels):
    """weighting_1 and weighting_2: the shape fixes the master's
    (g1, h1), the column step of the glue and the output universe."""
    require(master, "%s master" % name, FanDesign)
    _require(master.shape == shape, "%s master must use the %s shape" % (name, shape))
    _require(master.s == 1, "%s master must have exactly one layer" % name)
    if shape == CYCLIC:
        _require(len(set(master.g_list)) == 1, "master groups must share one fibre size")
        g1, step, n = master.g_list[0], master.h, len(master.g_list)
    else:
        g1, step, n = master.u, master.v, master.v // master.h
    h1 = master.h

    layer_sizes = {len(b) for b in master.layers[0]}
    terminal_sizes = {len(b) for b in master.terminal}
    g2, h2, s2 = _check_weighting_ingredients((layer_sizes, terminal_sizes),
                                              layer_fans, terminal_h, 3)

    out_layers = [[] for _ in range(s2)]
    inflated = []  # terminal blocks of the layer ingredients
    for mb in master.layers[0]:
        fan = layer_fans[len(mb)]
        for lay, fam in zip(out_layers, fan.layers):
            lay += [_glue(mb, ib, g1, step) for ib in fam]
        inflated += [_glue(mb, ib, g1, step) for ib in fan.terminal]
    from_h = [_glue(mb, ib, g1, step) for mb in master.terminal
              for ib in terminal_h[len(mb)].base_blocks]

    universe = ({"g_list": (g1 * g2,) * n} if shape == CYCLIC
                else {"u": g1 * g2, "v": h1 * h2 * n})
    out = FanDesign(s=s2, shape=shape, h=h1 * h2,
                    layers=tuple(tuple(lay) for lay in out_layers),
                    terminal=tuple(inflated + from_h), **universe)
    labels = input_labels or ["master fan", "layer ingredients", "terminal ingredients"]
    steps = (("inflated layer blocks", sum(map(len, out_layers)) + len(inflated)),
             ("inflated terminal blocks", len(from_h)))
    return _finish(name, labels, steps, out)


def weighting_1(master: FanDesign, layer_fans: dict, terminal_h: dict, input_labels=None):
    """Replace every point of a strictly h1-cyclic one-layer fan design
    by g2 x h2 new points.  Layer blocks are inflated by ingredient fan
    designs, terminal blocks by H designs; ingredient group a is glued
    onto the a-th point of the block in sorted order."""
    return _weighting("weighting_1", CYCLIC, master, layer_fans, terminal_h, input_labels)


def weighting_2(master: FanDesign, layer_fans: dict, terminal_h: dict, input_labels=None):
    """The regular-shape analogue of weighting_1.  The master lives on
    I_g1 x Z_{h1 n}; the output lives on I_{g1 g2} x Z_{h1 h2 n}."""
    return _weighting("weighting_2", REGULAR, master, layer_fans, terminal_h, input_labels)


def weighting_3(master: HDesign, ingredients: dict, input_labels=None):
    """Inflate every point of an h1-cyclic H design by g2 x h2 points,
    replacing each block by an h2-cyclic H design on its point set."""
    require(master, "weighting_3 master", HDesign)
    g1, h1 = master.l, master.h
    g2, h2, _ = _check_weighting_ingredients(((), {len(b) for b in master.base_blocks}),
                                             {}, ingredients, master.t)
    blocks = [_glue(mb, ib, g1, h1) for mb in master.base_blocks
              for ib in ingredients[len(mb)].base_blocks]

    out = HDesign(n=master.n, l=g1 * g2, h=h1 * h2, t=master.t,
                  base_blocks=tuple(blocks))
    labels = input_labels or ["master H design", "ingredients"]
    steps = (("inflated blocks", len(blocks)),)
    return _finish("weighting_3", labels, steps, out)


def _orbit_representatives(blocks, fibres, h: int, suffix: str) -> tuple:
    """Sorted representatives, as points, of whole, full orbits of code
    blocks of the points (x, y, j), y < fibres[x], under +1 on j mod h."""
    points = _fibre_points(fibres, h)
    reps = {}
    for codes in blocks:
        rep, stab = _orbit(codes, h)
        if stab != 1:
            raise ValueError("block %r has a short orbit%s"
                             % (tuple([points[e] for e in codes]), suffix))
        reps[rep] = None
    _require(len(reps) * h == len(blocks), "orbits do not partition the block set")
    return tuple([tuple([points[e] for e in rep]) for rep in sorted(reps)])


def as_semicyclic(d: HDesign):
    """Reread a plain H design whose groups are I_l as one with
    cyclic groups Z_l, then present it by base blocks under that
    action.  Fails if any block orbit is short."""
    require(d, "as_semicyclic input", HDesign)
    _require(d.h == 1, "input must be a plain H design")
    # the plain code x * l + y of (x, y, 0) is the code of (x, 0, y) under Z_l
    reps = _orbit_representatives(d._codes[0], (1,) * d.n, d.l, "")
    out = HDesign(n=d.n, l=1, h=d.l, t=d.t, base_blocks=reps)
    steps = (("orbit representatives", len(reps)),)
    return _finish("as_semicyclic", ["plain H design"], steps, out)


def fold(code: Code, v1: int, input_label: str = "code"):
    """Trade period for rows: each codeword yields v1 translated
    copies read on the (u * v1) x (v / v1) grid, sending (i, x) to
    (i + u * (x mod v1), x div v1)."""
    require(code, "fold input", Code)
    _require(v1 >= 1 and code.v % v1 == 0, "v1 must divide v")
    u, v = code.u, code.v
    u2, v2 = u * v1, v // v1

    def remap(e):
        i, x = divmod(e, v)
        return (i + u * (x % v1)) * v2 + x // v1

    mats = [_cells_matrix(sorted(map(remap, _image(m.cells, d, v))), u2, v2)
            for m in code.codewords for d in range(v1)]
    out = Code(u=u2, v=v2, k=code.k, lam=code.lam, codewords=tuple(mats))
    steps = (("translated copies", len(mats)),)
    return _finish("fold", [input_label], steps, out)


def semicyclic_to_vcyclic(d: FanDesign):
    """Reread a two-group fan design over Z_{2v}, v odd, as one over
    I_2 x Z_v, re-extracting base blocks under the smaller action."""
    require(d, "semicyclic_to_vcyclic input", FanDesign, strict=False)
    _require(d.shape == CYCLIC and d.s == 0, "input must be a 0-layer cyclic fan")
    _require(tuple(d.g_list) == (1, 1), "input must have two fibres of size 1")
    _require(d.h % 2 == 0 and (d.h // 2) % 2 == 1, "period must be 2v with v odd")
    v = d.h // 2

    # the check above developed the terminal family: (x, 0, i), code
    # x * 2v + i, goes to (x, i % 2, i // 2), code (2x + i % 2) * v + i // 2
    remapped = [tuple(sorted([(e // (2 * v) * 2 + e % 2) * v + e % (2 * v) // 2 for e in b]))
                for b in _fan_development(d).families[-1]]
    reps = _orbit_representatives(remapped, (2, 2), v, " under the new action")

    out = FanDesign(s=0, shape=CYCLIC, h=v, layers=(), terminal=reps, g_list=(2, 2))
    steps = (("orbit representatives", len(reps)),)
    return _finish("semicyclic_to_vcyclic", ["semicyclic fan"], steps, out)


def regular_to_h1cyclic(d: FanDesign, h1: int):
    """View a strictly regular fan design over Z_v as a strictly
    h1-cyclic one for any divisor h1 of its h.  Columns split as
    j = i + (a + b * (h / h1)) * (v / h); the point moves to group i,
    fibre row + u * a, cyclic coordinate b."""
    require(d, "regular_to_h1cyclic input", FanDesign)
    _require(d.shape == REGULAR, "input must use the regular shape")
    _require(h1 >= 1 and d.h % h1 == 0, "h1 must divide h")
    step = d.v // d.h
    ratio = d.h // h1

    def remap(e):
        row, col = divmod(e, d.v)
        m = col // step
        return col % step, row + d.u * (m % ratio), m // ratio

    # by position: an empty layer and an empty terminal are the same ()
    fams = [tuple(sorted([tuple(sorted(map(remap, _image(codes, delta, d.v))))
                          for codes in fam for delta in range(d.v // h1)]))
            for fam in d._codes]
    out = FanDesign(s=d.s, shape=CYCLIC, h=h1, layers=tuple(fams[:-1]), terminal=fams[-1],
                    g_list=(d.u * ratio,) * step)
    steps = tuple(("family %d representatives" % i, len(fam)) for i, fam in enumerate(fams))
    return _finish("regular_to_h1cyclic", ["regular fan"], steps, out)


def add_cross_pairs_layer(d: FanDesign):
    """Turn a 0-layer regular fan design into a 1-layer one by adding
    the orbit representatives of all cross-group point pairs."""
    require(d, "add_cross_pairs_layer input", FanDesign)
    _require(d.shape == REGULAR and d.s == 0, "input must be a 0-layer regular fan")
    step = d.v // d.h  # divides v, so a code's column class is its class modulo step
    layer = tuple([_grid_block(pq, d.v) for pq in sorted(
        {_orbit(pq, d.v)[0] for pq in combinations(range(d.u * d.v), 2)
         if pq[0] % step != pq[1] % step})])
    out = FanDesign(s=1, shape=REGULAR, h=d.h, layers=(layer,),
                    terminal=d.terminal, u=d.u, v=d.v)
    steps = (("existing terminal blocks", len(d.terminal)),
             ("cross pair representatives", len(layer)))
    return _finish("add_cross_pairs_layer", ["regular fan"], steps, out)


def perfect_to_regular_1fg(p: CyclicPacking):
    """A perfect packing on 2 x v, v = 1 or 5 mod 6, becomes a strictly
    regular one-layer fan design with singleton column groups: the
    packing blocks are the terminal class and the cross-column pair
    orbits form the layer."""
    require(p, "perfect_to_regular_1fg input", CyclicPacking)
    _require(p.u == 2 and (p.k, p.t) == (4, 3), "input must be a 2 x v packing with k=4")
    _require(p.v % 6 in (1, 5), "need v = 1 or 5 mod 6, got %d" % p.v)
    _require(is_perfect(p), "input packing must be perfect")
    base = FanDesign(s=0, shape=REGULAR, h=1, layers=(), terminal=p.base_blocks,
                     u=p.u, v=p.v)
    out, trace = add_cross_pairs_layer(base)
    expected_pairs = 2 * (p.v - 1)
    got_pairs = len(out.layers[0])
    _require(got_pairs == expected_pairs,
             "expected %d pair orbits, got %d" % (expected_pairs, got_pairs))
    return _finish("perfect_to_regular_1fg", ["perfect packing"], trace.steps, out)


def complete_pair_fan(n: int = 4):
    """The trivial one-layer fan design on n singleton groups: all
    pairs form the layer, the whole point set is the terminal block."""
    pts = [(x, 0, 0) for x in range(n)]
    layer = tuple(tuple(sorted(pq)) for pq in combinations(pts, 2))
    out = FanDesign(s=1, shape=CYCLIC, h=1, layers=(layer,),
                    terminal=(tuple(pts),), g_list=(1,) * n)
    return _finish("complete_pair_fan", [], (("pair and quadruple blocks", len(layer) + 1),), out)
