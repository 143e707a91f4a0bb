"""Circular and linear half-permutations: cutting an annulus in two.

A circular half-permutation is one circle's worth of an annular
permutation: a non-crossing permutation together with a record of which
blocks were severed (the *open* blocks) and where they exited (one point
per open block, all exits collected by a single cycle `bbar` of the
Kreweras complement).  With zero open blocks the extra datum is either
such a collecting cycle, which then collects nothing, or a *designated*
block of the permutation.

`cut` and `reassemble` realize the annulus <-> pair-of-halves bijection:
an annular permutation with k through-cycles cuts into two halves with k
open blocks each, and a pair of such halves glues back together in
exactly k ways.

The weighted counts here (`weighted_count` over `enum_ncc` / `enum_ncl`)
are the brute-force route to the same numbers the triangular transition
matrices of `families` produce by exact linear algebra; the test suite
holds the two routes against each other.

A linear half-permutation is a circular one whose collecting cycle
contains 1, whatever k (so it designates no block), and `LinearHalfPerm`
is a `CircularHalfPerm` subclass with no fields of its own: its
`__post_init__` runs the circular checks and then the linear condition.

Construction checks: `enum_ncc`, `enum_ncl` and `cut` build their halves
in normal form through `perms._unchecked`, without re-running the
`__post_init__` checks, since a generator's output, or either half of a
valid annulus, is valid by construction; the test suite holds every such
half to the checked constructor.  Everything else validates: the
`CircularHalfPerm` and `LinearHalfPerm` constructors (a linear build runs
both classes' checks), `make_circular` and `make_linear` (and so the
linear recursion's maps and `dots.dot_decode`), and `reassemble`, which
builds a checked `AnnularPerm`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .families import Family, inverse_table
from .limits import DISC_CAP
from .perms import (
    AnnularPerm,
    Perm,
    _unchecked,
    complement,
    enum_nc,
    is_noncrossing,
    partition_to_perm,
)
from .polyc import PolyC


@lru_cache(maxsize=1)
def _perm_data(perm: Perm) -> tuple[bool, frozenset, frozenset]:
    """What validating a half needs of its permutation: whether it is
    non-crossing, its block sets and its complement's block sets.

    Both cycle walks are done once; non-crossing is the genus bound
    #(perm) + #(complement) == n + 1 read off them (the empty permutation
    counts as non-crossing).  Checked builds of one permutation's halves
    often come one after another (a decoded half and the next), so a
    single entry serves them.
    """
    blocks = perm.cycles()
    comp_blocks = complement(perm).cycles()
    return (
        perm.size == 0 or len(blocks) + len(comp_blocks) == perm.size + 1,
        frozenset(map(frozenset, blocks)),
        frozenset(map(frozenset, comp_blocks)),
    )


def initial_point(perm: Perm, block, ref) -> int:
    """The initial point of `block` relative to the reference block `ref`.

    If the two share a point, that point (it is unique for valid
    configurations).  Otherwise walk the rotation forward from a point of
    `ref` and take the first arrival in `block`; the answer does not
    depend on the starting point chosen.
    """
    common = set(block) & set(ref)
    if common:
        if len(common) != 1:
            raise ValueError(f"blocks {block} and {ref} share {len(common)} points")
        return common.pop()
    n = perm.size
    cur = ref[0]
    members = set(block)
    for _ in range(n):
        cur = cur % n + 1
        if cur in members:
            return cur
    raise ValueError("walk never reached the block")


def _rotate_to(block: tuple[int, ...], start: int) -> tuple[int, ...]:
    i = block.index(start)
    return block[i:] + block[:i]


class WeightRule(enum.Enum):
    """Which block statistic becomes the exponent of c."""

    ALL_BLOCKS = "all"
    CLOSED_BLOCKS = "closed"


@dataclass(frozen=True)
class CircularHalfPerm:
    """One circle's half of a severed annular permutation.

    `bbar` is the cycle of the Kreweras complement collecting the exit
    points, and each entry of `opens` is a cycle of `perm` rotated to
    start at its exit (initial) point, the tuple sorted by those points.
    With zero open blocks the collecting cycle collects nothing; a half
    may then name a block of `perm` as `designated` in its place.  Both
    blocks are stored sorted, and only the empty half has neither.

    The text form lists the open blocks in brackets, then the closed
    blocks; with no open blocks it marks the collecting cycle with *c
    or the designated block with *:

    >>> [str(h) for h in enum_ncc(2, 1)]
    ['[1](2)', '[2](1)', '[1,2]', '[2,1]']
    >>> str(make_circular(3, Perm((2, 1, 3)), (), (1, 3)))
    '(1,2)(3)*c(1,3)'
    >>> str(CircularHalfPerm(n=3, perm=Perm((2, 1, 3)), designated=(1, 2)))
    '(1,2)(3)*(1,2)'
    """

    n: int
    perm: Perm
    opens: tuple[tuple[int, ...], ...] = ()
    bbar: tuple[int, ...] | None = None
    designated: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.perm.size != self.n:
            raise ValueError("permutation size mismatch")
        noncrossing, blocks, comp_blocks = _perm_data(self.perm)
        if not noncrossing:
            raise ValueError(f"{self.perm} is not non-crossing")
        if self.designated is not None:
            if self.bbar is not None or self.opens:
                raise ValueError("a designated block and a collecting cycle are exclusive")
            if frozenset(self.designated) not in blocks:
                raise ValueError(f"{self.designated} is not a block of the perm")
            if tuple(sorted(self.designated)) != self.designated:
                raise ValueError("designated block must be sorted")
        elif self.bbar is not None:
            if frozenset(self.bbar) not in comp_blocks:
                raise ValueError(f"{self.bbar} is not a complement cycle")
            if tuple(sorted(self.bbar)) != self.bbar:
                raise ValueError("collecting cycle must be sorted")
            bbar = set(self.bbar)
            initials = []
            for block in self.opens:
                if frozenset(block) not in blocks:
                    raise ValueError(f"{block} is not a cycle of {self.perm}")
                exits = set(block) & bbar
                if len(exits) != 1:
                    raise ValueError(
                        f"open block {block} meets {self.bbar} in {len(exits)} points"
                    )
                x = exits.pop()
                if block != _rotate_to(tuple(sorted(block)), x):
                    raise ValueError(
                        f"open block {block} must be rotated to start at {x}"
                    )
                initials.append(x)
            if initials != sorted(initials):
                raise ValueError("open blocks must be sorted by initial point")
            if len(set(map(frozenset, self.opens))) != len(self.opens):
                raise ValueError("open blocks must be distinct")
        elif self.n or self.opens:
            raise ValueError(
                "only the empty half has neither a collecting cycle nor a designated block"
            )

    @property
    def k(self) -> int:
        return len(self.opens)

    def open_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(b) for b in self.opens)

    def closed_blocks(self) -> tuple[tuple[int, ...], ...]:
        # a cycle starts at its least point, so its minimum names it
        open_mins = {min(b) for b in self.opens}
        return tuple(b for b in self.perm.cycles() if b[0] not in open_mins)

    @property
    def num_closed(self) -> int:
        return self.perm.num_cycles() - self.k

    def initial_points(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.opens)

    def closed_weight_exponent(self) -> int:
        """Exponent of c under the closed-blocks rule: the number of closed
        blocks, less one for a designated block."""
        return self.perm.num_cycles() - self.k - (self.designated is not None)

    def sort_key(self):
        return (
            self.perm.image,
            self.opens,
            self.designated or self.bbar or (),
            self.designated is not None,
        )

    def __str__(self) -> str:
        if self.n == 0:
            return "()"
        closed = "".join(
            "(" + ",".join(map(str, b)) + ")" for b in self.closed_blocks()
        )
        if self.opens:
            return "".join("[" + ",".join(map(str, b)) + "]" for b in self.opens) + closed
        mark, block = ("c", self.bbar) if self.designated is None else ("", self.designated)
        return closed + "*" + mark + "(" + ",".join(map(str, block)) + ")"


def _normal_opens(blocks, bbar) -> tuple[tuple[int, ...], ...]:
    """Blocks in open-block normal form against the sorted complement
    cycle `bbar`: each rotated to start at the one point it shares with
    bbar, the tuple sorted by those points.  Raises ValueError for a
    block that meets bbar in any other number of points."""
    members = set(bbar)
    out = []
    for b in blocks:
        common = members.intersection(b)
        if len(common) != 1:
            raise ValueError(
                f"open block {tuple(sorted(b))} meets {bbar} in {len(common)} points"
            )
        out.append(_rotate_to(tuple(sorted(b)), *common))
    out.sort()
    return tuple(out)


def make_circular(n: int, perm: Perm, open_sets, bbar) -> CircularHalfPerm:
    """Build a half-perm of the non-crossing permutation `perm` from raw
    open block sets and collecting cycle, recomputing all normal forms."""
    bbar_t = tuple(sorted(bbar))
    return CircularHalfPerm(
        n=n, perm=perm, opens=_normal_opens(open_sets, bbar_t), bbar=bbar_t
    )


def _circular(n, perm, opens=(), bbar=None, designated=None, cls=CircularHalfPerm):
    """A half of class `cls` from fields already in normal form, unchecked."""
    return _unchecked(cls, n=n, perm=perm, opens=opens, bbar=bbar, designated=designated)


@dataclass(frozen=True)
class LinearHalfPerm(CircularHalfPerm):
    """A circular half-permutation whose collecting cycle contains 1.

    Cutting the circle open just before 1 turns it into a line; with no
    open blocks this is simply a non-crossing partition (its collecting
    cycle gives the weight c^(#blocks) the plain partition should carry).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n and 1 not in (self.bbar or ()):
            raise ValueError("the collecting cycle must contain 1")


def make_linear(n: int, blocks, open_sets) -> LinearHalfPerm:
    """Build a linear half-perm from raw block sets.

    The collecting cycle is forced: it is the complement block through 1.
    Raises ValueError if some open block fails to meet it.
    """
    perm = partition_to_perm(tuple(tuple(sorted(b)) for b in blocks))
    if n == 0:
        return LinearHalfPerm(n=0, perm=perm)
    bbar = tuple(sorted(complement(perm).cycle_containing(1)))
    return LinearHalfPerm(n=n, perm=perm, opens=_normal_opens(open_sets, bbar), bbar=bbar)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _check_cell(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n > DISC_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DISC_CAP}")


def enum_ncc(n: int, k: int) -> tuple[CircularHalfPerm, ...]:
    """All circular half-permutations of [n] with k open blocks."""
    _check_cell(n, k)
    if n == 0:
        return (CircularHalfPerm(n=0, perm=Perm(())),)
    out: list[CircularHalfPerm] = []
    for perm in enum_nc(n):
        blocks = perm.cycles()
        block_of = {x: b for b in blocks for x in b}
        for bbar in complement(perm).cycles():
            bbar_t = tuple(sorted(bbar))
            # the blocks bbar can collect: one through each of its points
            exits = _normal_opens([block_of[x] for x in bbar_t], bbar_t)
            for opens in combinations(exits, k):
                out.append(_circular(n, perm, opens, bbar_t))
        if k == 0:
            for b in blocks:
                out.append(_circular(n, perm, designated=tuple(sorted(b))))
    out.sort(key=lambda h: h.sort_key())
    return tuple(out)


def enum_ncl(n: int, k: int) -> tuple[LinearHalfPerm, ...]:
    """All linear half-permutations of [n] with k open blocks."""
    _check_cell(n, k)
    if n == 0:
        return (make_linear(0, (), ()),)
    out: list[LinearHalfPerm] = []
    for perm in enum_nc(n):
        bbar_t = tuple(sorted(complement(perm).cycle_containing(1)))
        exits = _normal_opens(map(perm.cycle_containing, bbar_t), bbar_t)
        for opens in combinations(exits, k):
            out.append(_circular(n, perm, opens, bbar_t, cls=LinearHalfPerm))
    out.sort(key=lambda h: h.sort_key())
    return tuple(out)


def weighted_count(diagrams, weight=WeightRule.ALL_BLOCKS) -> PolyC:
    """Sum of c^(statistic) over the diagrams, the statistic picked by the
    WeightRule `weight`: every block of `d.perm` (an annulus or a half), or
    a half's closed-block weight exponent."""
    if weight is WeightRule.ALL_BLOCKS:
        def exponent(d) -> int:
            return d.perm.num_cycles()
    elif weight is WeightRule.CLOSED_BLOCKS:
        def exponent(d) -> int:
            return d.closed_weight_exponent()
    else:
        raise TypeError(f"unsupported weight {weight!r}")
    return PolyC.census(map(exponent, diagrams))


# ---------------------------------------------------------------------------
# cut and reassemble
# ---------------------------------------------------------------------------


def cut(a: AnnularPerm) -> tuple[CircularHalfPerm, CircularHalfPerm]:
    """Sever an annular permutation into its two circular halves."""
    m, n = a.m, a.n
    perm = a.perm
    outer = tuple(range(1, m + 1))
    inner = tuple(range(m + 1, m + n + 1))
    comp_through = [
        set(cyc) for cyc in a.complement_perm().cycles() if min(cyc) <= m < max(cyc)
    ]
    exits = set().union(*comp_through)
    through = [set(cyc) for cyc in perm.cycles() if min(cyc) <= m < max(cyc)]

    halves = []
    for points, offset in ((outer, 0), (inner, m)):
        pset = set(points)
        induced = perm.induced(points)
        open_sets = [
            frozenset(x - offset for x in t & pset) for t in through
        ]
        bbar = tuple(sorted(x - offset for x in exits & pset))
        opens = _normal_opens(open_sets, bbar)
        halves.append(_circular(len(points), induced, opens, bbar))
    return halves[0], halves[1]


def reassemble(
    h1: CircularHalfPerm, h2: CircularHalfPerm, s: int
) -> AnnularPerm:
    """Glue two halves with k open blocks each back into an annular
    permutation; the k choices of s in 1..k give the k distinct gluings."""
    k = h1.k
    if k == 0 or h2.k != k:
        raise ValueError(
            f"need matching open-block counts >= 1, got {h1.k} and {h2.k}"
        )
    if not 1 <= s <= k:
        raise ValueError(f"s must be in 1..{k}, got {s}")
    m, n = h1.n, h2.n
    xs = h1.initial_points()
    ys = tuple(y + m for y in h2.initial_points())
    image = list(range(1, m + n + 1))
    for i, j in enumerate(h1.perm.image, start=1):
        image[i - 1] = j
    for i, j in enumerate(h2.perm.image, start=1):
        image[m + i - 1] = j + m
    # transpositions (x_i, y_{k-i+s}) applied after the two halves
    swap = {}
    for i in range(1, k + 1):
        y = ys[(k - i + s - 1) % k]
        swap[xs[i - 1]] = y
        swap[y] = xs[i - 1]
    final = tuple(swap.get(j, j) for j in image)
    return AnnularPerm(m, n, Perm(final))


# ---------------------------------------------------------------------------
# the linear recursion's four-way split
# ---------------------------------------------------------------------------


def linear_case(h: LinearHalfPerm) -> int:
    """Which of the four removal cases the last point of h falls in.

    1: last point is an open singleton          -> k drops by one
    2: last point is in a larger open block     -> nothing changes
    3: last point is a closed singleton         -> one closed block fewer
    4: last point is in a larger closed block   -> that block opens up
    """
    last = h.n
    block = set(h.perm.cycle_containing(last))
    is_open = frozenset(block) in set(h.open_sets())
    if is_open:
        return 1 if len(block) == 1 else 2
    return 3 if len(block) == 1 else 4


def linear_remove(h: LinearHalfPerm) -> LinearHalfPerm:
    """Remove the last point per the four-way split, one size down."""
    case = linear_case(h)
    last = h.n
    blocks = [set(b) for b in h.perm.cycles()]
    opens = [set(b) for b in h.opens]
    block = next(b for b in blocks if last in b)
    blocks.remove(block)
    reduced = block - {last}
    if case == 1:
        opens = [o for o in opens if o != block]
    elif case == 2:
        opens = [reduced if o == block else o for o in opens]
        blocks.append(reduced)
    elif case == 3:
        pass
    else:
        blocks.append(reduced)
        opens.append(reduced)
    return make_linear(h.n - 1, blocks, opens)


def linear_insert(case: int, h: LinearHalfPerm) -> LinearHalfPerm:
    """Inverse of `linear_remove` for the given case, one size up.

    Cases 2 and 4 attach the new point to the rightmost open block --
    the only attachment that keeps the configuration valid.
    """
    new = h.n + 1
    blocks = [set(b) for b in h.perm.cycles()]
    opens = [set(b) for b in h.opens]
    if case == 1:
        blocks.append({new})
        opens.append({new})
    elif case == 2:
        if not opens:
            raise ValueError("case 2 needs an open block")
        target = set(h.opens[-1])
        blocks.remove(target)
        blocks.append(target | {new})
        opens = [o | {new} if o == target else o for o in opens]
    elif case == 3:
        blocks.append({new})
    elif case == 4:
        if not opens:
            raise ValueError("case 4 needs an open block")
        target = set(h.opens[-1])
        blocks.remove(target)
        blocks.append(target | {new})
        opens = [o for o in opens if o != target]
    else:
        raise ValueError(f"no case {case}")
    return make_linear(new, blocks, opens)


# ---------------------------------------------------------------------------
# odd-open-block pairing: matching matrix columns to block statistics
# ---------------------------------------------------------------------------


def pair_up_odd(h: LinearHalfPerm) -> tuple[Perm, tuple[int, ...]]:
    """Fold a linear half-perm with 2t+1 open blocks into a plain
    non-crossing partition with a marked block.

    The open blocks, read left to right, are joined outside-in (first
    with last, second with second-last, ...); the middle one becomes the
    marked block.
    """
    k = h.k
    if k % 2 != 1:
        raise ValueError("needs an odd number of open blocks")
    t = (k - 1) // 2
    opens = sorted((set(b) for b in h.opens), key=min)
    blocks = [set(b) for b in h.closed_blocks()]
    for i in range(t):
        blocks.append(opens[i] | opens[k - 1 - i])
    middle = opens[t]
    blocks.append(middle)
    perm = partition_to_perm(tuple(tuple(sorted(b)) for b in blocks))
    if not is_noncrossing(perm):
        raise AssertionError("outside-in joining must stay non-crossing")
    return perm, tuple(sorted(middle))


def unfold_marked(perm: Perm, marked: tuple[int, ...]) -> LinearHalfPerm:
    """Inverse of `pair_up_odd`: split every block covering the marked
    one at the marked block's position and open all the pieces."""
    lo, hi = min(marked), max(marked)
    blocks = []
    opens = [set(marked)]
    for b in perm.cycles():
        bs = set(b)
        if bs == set(marked):
            continue
        if min(b) < lo and max(b) > hi:
            left = {x for x in bs if x < lo}
            right = {x for x in bs if x > hi}
            blocks.extend([left, right])
            opens.extend([left, right])
        else:
            blocks.append(bs)
    blocks.append(set(marked))
    return make_linear(perm.size, blocks, opens)


def lineardecomp_check(n: int) -> tuple[PolyC, PolyC]:
    """Two routes to the same polynomial: odd columns of the centered
    second-kind inverse table, against block-count-weighted non-crossing
    partitions.  Returns both; they agree when the identity holds."""
    if n > DISC_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DISC_CAP}")
    inv = inverse_table(Family.PI, n + 1)
    lhs = PolyC.zero()
    for k in range((n - 1) // 2 + 1):
        lhs = lhs + PolyC.monomial(k) * inv.entry(n, 2 * k + 1)
    rhs = PolyC.zero()
    for perm in enum_nc(n):
        nb = perm.num_cycles()
        rhs = rhs + PolyC.monomial(nb - 1) * PolyC.const(nb)
    return lhs, rhs
