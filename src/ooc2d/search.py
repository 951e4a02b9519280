"""Search for maximum strictly cyclic packings.

Grid point (i, j) is the int i*v + j.  Column shifts split the
t-subsets of the n = uv points into orbits, and each orbit is one bit:
orbits are numbered in the order of their least members.  One table,
built once per search by core._develop, maps each t-subset to its
orbit's number and lists each orbit's members in shift order: member d
is the least member moved by d.  It is the search's one record of an
orbit's shifts.  A candidate orbit is kept
as (rep, mask): its canonical representative and the int mask of the
t-subset orbits its images cover.  Only strictly cyclic orbits whose
images repeat no t-subset are candidates: those whose rep's C(k, t)
t-subsets lie in C(k, t) distinct orbits, none of them short (of
fewer than v members).  Every set of t-subsets the search handles is
a union of whole orbits, so a mask loses nothing by holding one bit
per orbit, and two candidate orbits share a t-subset exactly when
they share a t-subset orbit.

Two stages.  A seeded ruin-and-recreate heuristic (Schrimpf et al.,
J. Comput. Phys. 159, 2000) first tries to grow a packing to the
sharpened counting bound; reaching it is already a proof of
optimality, no tree search needed.  The heuristic refers to an orbit
by its index in the orbit list and gives each orbit a conflict bitset
over those indices: bit j is set when orbit j shares a t-subset with
it, its own bit included.  The orbits still free beside a partial
packing form the bitset free: all orbits less the OR of its blocks'
conflicts.  A pick with draw r is the r-th lowest set bit of free.
Its draws are defined as follows: a draw below n repeats
rng.getrandbits(n.bit_length()) until the value is below n, and a
shuffle is Fisher-Yates from the last position down, each swap
partner such a draw.  These are the draws rng.randrange and
rng.shuffle make on CPython 3.10 to 3.13, so a seed picks the same
witness on each of them.

Otherwise the heuristic's best packing becomes the incumbent for an
exhaustive branch and bound, Knuth's Algorithm X with the leave as
optional cover ("Dancing Links", arXiv cs/0011047).  It branches on
the lowest t-subset orbit that is neither covered nor written off
(free & -free) and on its least member T, which is the least free
t-subset: either covering T with one of the orbits that hold it, in
the order of the other points of the image that holds it, or writing
off T's orbit, its one bit, into the leave.  That image is read from
the table, not developed: a rep's t-subset that is member d of its
orbit puts T in the rep's image by -d.  There is no bit for T
alone: the leave is a set of whole orbits, closed under column shifts
by construction.  Nothing is lost, since an orbit that covers a shift
of T covers T itself, so once T is left no shift of T can be covered.
Writing off the orbit at once saves the nodes whose only child would
be a forced leave of each shift of T.

A node is expanded only while depth + slots // k beats the
incumbent: the second level of Johnson's bound (IRE Trans. Inf.
Theory 8, 1962), counted per row.  The t-subsets used (covered or
written off) are whole orbits, closed under column shifts, so every
point of row i counts as p = (i, 0) does.  For each other point q,
let g_q be the number of free t-subsets through both p and q.  A
block through p and q covers C(k-2, t-2) of them, so each further
block through p lowers S_i, the sum of g_q // C(k-2, t-2) over q, by
exactly k-1, and at most S_i // (k-1) such blocks fit: these are row
i's slots, and slots is their sum over the rows.  An orbit has one
block through (i, 0) for each of its rep's r_i points in row i, so it
fills k slots, and at most slots // k further orbits fit.  At the
root, for t in {2, 3}, slots // k is johnson_bound(u, v, k, t - 1).

A cover child has exactly slots - k.  Its orbit repeats no t-subset,
so each of its images through p and q holds exactly pp = C(k-2, t-2)
free t-subsets through that pair, all its own: every g_q falls by a
multiple of pp and keeps g_q mod pp, S_i falls by exactly (k-1) * r_i,
and S_i mod (k-1) stays as it was.  Each frame therefore carries one
residue S_i mod (k-1) per row and the residue ring below, and cover
children share both with their parent.  Only a leave child recounts.
Writing off T's orbit lowers g_q by lost, the number of its members
through p and q, so g_q // pp falls by lost // pp, plus 1 when g_q mod
pp < lost mod pp.  The ring is one int of pp classes of u*n bits: pair
(p, q), p = (i, 0), is bit i*n + q of each class, and set in class c
when g_q mod pp = c.  The table of t-subset orbits gives each orbit
its leave entry: per row that the orbit meets, the sum of lost // pp
over the row's pairs and the mask of class bits 0 to (lost mod pp) - 1
of each of them, so one popcount of that mask and the ring gives the
fall of S_i; and per r = lost mod pp > 0, the pairs that turn by r:
the leave moves each of them from class c to class (c - r) mod pp, a
rotation of their bits by r classes.  For (k, t) = (4, 3), pp = 2:
class 0 holds the pairs with even g_q, the fall counts the pairs with
odd lost among them, and a leave swaps the classes of those pairs.
For pp = 1 (t = 1, t = 2 or t = k) no pair has a nonzero residue, the
masks are empty and S_i falls by the sum of lost.  For t = 1 there is
no pair level: each row's point is its own one pair and the divisor
is 1, the plain per-point count.  For t >= 2 the bound is at least as
sharp as the per-point count f_i // C(k-1, t-1), f_i the free
t-subsets through p, since the g_q sum to (t-1) * f_i; and that
implies the plain counting bound depth + free // (v*C(k, t)), since
t * free = v * sum f_i and C(k, t) = k * C(k-1, t-1) / t.

All pruning is against strictly-better-than-incumbent, so a finished
run proves the incumbent maximal.  A sound bound, however sharp,
prunes only subtrees that hold no packing larger than the incumbent
of the moment, where a walk that pruned less would change nothing:
both walks meet the same incumbents in the same order and return the
same witness, the sharper one in fewer nodes.  Only under an
exhausted node budget may the best-so-far differ.  Both stages stop
at one cap (max_packing), which proves a witness that meets it; for
t = 1 that cap, u // k, is the root's slots // k.

The tree is walked from one stack of pending children, so its depth
is not limited by Python's recursion limit.  Expanding a node pushes
its leave child, then each orbit that still fits, last first: children
pop in branching order, each subtree done before the next sibling
pops.  A cover child carries its blocks as a parent-linked tuple,
unwound only when a leaf beats the incumbent.  The leave child pops
after all its siblings' subtrees, and its bound check runs then, so
it sees the same incumbent as a walk that decides the leave after
the last cover; a leave that fails the check is not a node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .bounds import johnson_bound, jstar
from .core import (CyclicPacking, _check_grid, _check_ints, _check_t, _develop, _image, _orbit,
                   _packing)
from .files import require


@dataclass(frozen=True)
class SearchResult:
    max_blocks: int
    witness: CyclicPacking
    proved_optimal: bool
    nodes_explored: int
    budget_exhausted: bool
    proof: str | None  # "bound", "exhausted" or None, as max_packing says
    upper_bound: int  # the cap both stages stop at, as max_packing says


def _subset_orbits(n: int, v: int, t: int) -> tuple:
    """(orbit_of, members) for the t-subsets of n points under column
    shifts: orbit_of maps each t-subset to its orbit's number, orbits
    numbered in the order of their least members, and members[j] lists
    orbit j's t-subsets in shift order, as core._develop develops them:
    members[j][d] is its least member moved by d."""
    orbit_of: dict = {}
    members: list = []
    for sub in combinations(range(n), t):
        if sub not in orbit_of:
            group = _develop([sub], v)[0]
            for img in group:
                orbit_of[img] = len(members)
            members.append(group)
    return orbit_of, members


def _build_orbits(u: int, v: int, k: int, t: int, orbit_of: dict, members: list) -> list:
    """All orbit representatives whose orbit repeats no t-subset,
    paired with the bit mask of the t-subset orbits the orbit covers.

    k-subsets come in lexicographic order, so each orbit is first met
    at its representative, the least of its images.  That image's
    least point lies in column 0, so any other first point is skipped
    before the subset is looked at.  The t-subsets the orbit covers are
    the shift orbits of the representative's own, and it repeats none
    exactly when those C(k, t) t-subsets lie in C(k, t) distinct
    orbits, none of them short."""
    short = sum(1 << j for j, group in enumerate(members) if len(group) < v)
    size = comb(k, t)
    orbits = []
    for c in combinations(range(u * v), k):
        if c[0] % v or _orbit(c, v) != (c, 1):
            continue
        mask = 0
        for sub in combinations(c, t):
            mask |= 1 << orbit_of[sub]
        if mask.bit_count() == size and not mask & short:
            orbits.append((c, mask))
    return orbits


def _conflicts(orbits: list) -> list:
    """Per orbit, the int bitset over orbit indices whose bit j is set
    when orbit j's mask shares a t-subset orbit with its own; its own
    bit is set too."""
    holders: dict = {}  # t-subset orbit number -> bitset of the orbits covering it
    positions = []
    for i, (_, mask) in enumerate(orbits):
        mine = []
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            holders[j] = holders.get(j, 0) | 1 << i
            mine.append(j)
        positions.append(mine)
    return [reduce(or_, map(holders.__getitem__, mine), 0) for mine in positions]


def _ruin_recreate(orbits: list, cap, iterations: int, rng: random.Random) -> list:
    """Grow a packing greedily, then repeatedly drop 2 to 6 random
    blocks and regrow, keeping the best.  Stops early at cap.  Blocks
    are orbit indices and the draws those of the module docstring."""
    conflicts = _conflicts(orbits)
    everything = (1 << len(orbits)) - 1
    getrandbits = rng.getrandbits
    width_of = [n.bit_length() for n in range(len(orbits) + 1)]

    def grow(blocks: list) -> list:
        blocked = 0
        for i in blocks:
            blocked |= conflicts[i]
        free = everything ^ blocked
        while free:
            n = free.bit_count()  # r = rng.randrange(n)
            width = width_of[n]
            r = getrandbits(width)
            while r >= n:
                r = getrandbits(width)
            rest = free
            for _ in range(r):  # clear the r lowest set bits
                rest &= rest - 1
            pick = (rest & -rest).bit_length() - 1
            blocks.append(pick)
            free &= ~conflicts[pick]
        return blocks

    cur = grow([])
    best = list(cur)
    for _ in range(iterations):
        if cap is not None and len(best) >= cap:
            break
        r = getrandbits(3)  # 2 + r is rng.randrange(2, 7)
        while r >= 5:
            r = getrandbits(3)
        keep = max(0, len(cur) - 2 - r)
        for n in range(len(cur), 1, -1):  # rng.shuffle(cur)
            width = width_of[n]
            j = getrandbits(width)
            while j >= n:
                j = getrandbits(width)
            cur[n - 1], cur[j] = cur[j], cur[n - 1]
        cur = grow(cur[:keep])
        if len(cur) > len(best):
            best = list(cur)
    return [orbits[i] for i in best]


def _candidates(v: int, t: int, orbits: list, orbit_of: dict, members: list) -> list:
    """Per t-subset orbit, the (mask, rep) of every orbit covering its
    least member, ordered by the other points of the image that holds
    that member: all images in one list hold it, so they sort as those
    points do.  A rep's t-subset sub, d shifts past its orbit's least
    member, puts that member in the rep's image by -d, the only one
    that holds it, since the orbit repeats no t-subset."""
    keyed: list = [[] for _ in members]
    for rep, mask in orbits:
        entry = (mask, rep)
        for sub in combinations(rep, t):
            j = orbit_of[sub]
            keyed[j].append((_image(rep, -members[j].index(sub), v), entry))
    return [[entry for _, entry in sorted(options)] for options in keyed]


def _leave_orbits(n: int, v: int, t: int, per_pair: int, members: list) -> list:
    """Per t-subset orbit j, its leave entry (1 << j, falls, turns) on
    n points, as the module docstring gives it.  falls holds (i, fixed,
    below) per row i that the members meet, and S_i falls by fixed plus
    the popcount of ring & below.  turns holds (keep, shift) per r =
    lost mod per_pair > 0: the bits in every class of the pairs that
    turn by r, and r class widths.  For t = 1, q is p itself."""
    width = n // v * n  # the bits of one class
    every = sum(1 << c * width for c in range(per_pair))  # bit 0 of each class
    table = []
    for j, group in enumerate(members):
        lost: dict = {}  # bit of pair (p, q) -> members through p and q
        for img in group:
            for p in img:
                if p % v == 0:
                    for q in img:
                        if q != p or t == 1:
                            pair = p // v * n + q
                            lost[pair] = lost.get(pair, 0) + 1
        falls: dict = {}  # row -> [fixed, below]
        turns: dict = {}  # r -> keep
        for pair, m in sorted(lost.items()):
            r = m % per_pair
            fall = falls.setdefault(pair // n, [0, 0])
            fall[0] += m // per_pair
            fall[1] |= (every & (1 << r * width) - 1) << pair
            if r:
                turns[r] = turns.get(r, 0) | every << pair
        table.append((1 << j, tuple((row, *fall) for row, fall in falls.items()),
                      tuple((keep, r * width) for r, keep in sorted(turns.items()))))
    return table


def _pair_level(n: int, k: int, t: int) -> tuple:
    """(pair_total, per_pair, per_block, root) on n points, as the
    module docstring counts them: the t-subsets through a pair of
    points, those a block through the pair covers, the pairs through a
    point that a block through it holds (k - 1), and each row's S_i at
    the root.  For t = 1 a point is its own one pair: all four are 1."""
    if t == 1:
        return 1, 1, 1, 1
    pair_total, per_pair = comb(n - 2, t - 2), comb(k - 2, t - 2)
    return pair_total, per_pair, k - 1, (n - 1) * (pair_total // per_pair)


def _branch_and_bound(u: int, v: int, k: int, t: int, orbits: list, orbit_of: dict,
                      members: list, incumbent: list, cap, node_budget: int):
    """Exhaustive search from the incumbent.  Returns (best reps,
    nodes visited, whether the node budget ran out)."""
    n = u * v
    pair_total, per_pair, per_block, root = _pair_level(n, k, t)
    full = (1 << len(members)) - 1
    options_of = _candidates(v, t, orbits, orbit_of, members)
    leave_of = _leave_orbits(n, v, t, per_pair, members)
    width = u * n  # the bits of one class of the residue ring
    span = per_pair * width
    everything = (1 << span) - 1
    tracked = 0  # the pairs (p, q) of row i, as bits i * n + q; for t = 1 only q = p
    for i in range(u):
        tracked |= (1 << i * v if t == 1 else (1 << n) - 1 ^ 1 << i * v) << i * n
    best = len(incumbent)
    best_blocks = [rep for rep, _ in incumbent]
    nodes = 0
    # pending children (depth, used, slots, residues, ring, chosen, leave),
    # where used = covered | forbidden, slots, the per-row residues
    # S_i mod per_block and the residue ring are those of the module
    # docstring, chosen is the parent-linked tuple (rep, chosen) of the
    # blocks on the way down and leave is the leave entry a leave child
    # still has to write off; at the root each row has S_i = root and
    # each pair g_q = pair_total
    stack: list = [(0, 0, u * (root // per_block), [root % per_block] * u,
                    tracked << pair_total % per_pair * width, None, None)]
    while stack:
        depth, used, slots, residues, ring, chosen, leave = stack.pop()
        if leave is not None:
            orbit, falls, turns = leave
            residues = residues[:]  # the parent's list is shared by its cover children
            for row, fixed, below in falls:
                left = residues[row] - fixed - (ring & below).bit_count()
                slots += left // per_block
                residues[row] = left % per_block
            if depth + slots // k <= best:
                continue
            for keep, shift in turns:  # class c -> (c - r) mod per_pair
                moved = ring & keep
                ring ^= moved ^ ((moved << span | moved) >> shift & everything)
            used |= orbit
        nodes += 1
        if nodes > node_budget:
            return best_blocks, nodes, True
        free = full ^ used
        if not free:
            if depth > best:
                best, best_blocks = depth, []
                while chosen is not None:
                    rep, chosen = chosen
                    best_blocks.append(rep)
                best_blocks.reverse()
                if cap is not None and best >= cap:
                    break
        elif cap is not None and best >= cap:
            break
        elif depth + slots // k > best:
            target = (free & -free).bit_length() - 1
            stack.append((depth, used, slots, residues, ring, chosen, leave_of[target]))
            for mask, rep in reversed(options_of[target]):
                if not mask & used:
                    stack.append((depth + 1, used | mask, slots - k, residues, ring,
                                  (rep, chosen), None))
    return best_blocks, nodes, False


def check_parameters(u: int, v: int, k: int, t: int, node_budget: int) -> None:
    """Raise ValueError unless max_packing can search these parameters."""
    _check_grid(u, v)
    _check_t(k, t)
    if u * v < k:
        raise ValueError("grid has fewer than k points")
    _check_ints(node_budget=node_budget)
    if node_budget < 1:
        raise ValueError("node budget must be positive")


def max_packing(u: int, v: int, k: int, t: int,
                node_budget: int = 100_000_000,
                heuristic_iterations: int = 30_000) -> SearchResult:
    """The largest strictly cyclic packing of k-subsets of the u x v
    grid that covers no t-subset twice.

    heuristic_iterations bounds the ruin-and-recreate rounds, seeded
    from (u, v); 0 starts the tree search from no incumbent.  When
    node_budget tree nodes run out, the best packing found is returned
    with budget_exhausted set.  upper_bound is the cap both stages stop
    at: jstar(u, v) for (k, t) = (4, 3), else johnson_bound(u, v, k,
    t - 1) for t >= 2 and u // k for t = 1.  proof is "bound" when the
    witness meets it, "exhausted" when the tree search finished, else
    None.  The witness passes the gate files.require, strict, or
    ValueError is raised."""
    check_parameters(u, v, k, t, node_budget)
    orbit_of, members = _subset_orbits(u * v, v, t)
    # developed blocks share at most t - 1 points, and a full orbit of a
    # 1-packing fills k rows.  The heuristic keeps strict improvements
    # only, so stopping it at cap leaves its best packing unchanged.
    cap = (jstar(u, v)[0] if (k, t) == (4, 3) else johnson_bound(u, v, k, t - 1) if t >= 2
           else u // k)
    orbits = _build_orbits(u, v, k, t, orbit_of, members)
    incumbent: list = []
    if heuristic_iterations > 0 and orbits and cap != 0:
        rng = random.Random(20210 + 31 * u + v)
        incumbent = _ruin_recreate(orbits, cap, heuristic_iterations, rng)
    reps, nodes, exhausted = [rep for rep, _ in incumbent], 0, False
    if len(incumbent) < cap:
        reps, nodes, exhausted = _branch_and_bound(
            u, v, k, t, orbits, orbit_of, members, incumbent, cap, node_budget)

    witness = _packing(u, v, k, t, reps)
    require(witness, "search witness")

    proof = "bound" if len(reps) >= cap else None if exhausted else "exhausted"
    return SearchResult(
        max_blocks=len(reps),
        witness=witness,
        proved_optimal=proof is not None,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
        proof=proof,
        upper_bound=cap,
    )
