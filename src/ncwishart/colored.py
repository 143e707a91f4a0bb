"""Colored annular enumeration and interval decompositions.

Points on the two circles of an annulus are grouped into intervals, one
color per interval, and only monochromatic cycles are allowed.  Optional
per-interval through-block counts filter the enumeration further; pinning
every count to the interval length leaves only spoke-like diagrams, whose
weighted count is the predicted covariance of traces of products.

The module also carries the linear side of the story: restricting an
open-carrying circular half-permutation to its intervals (when every
interval meets an open block) yields one linear half-permutation per
interval, which is what makes product weights factor into per-interval
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product

from .families import Family, transition_matrix
from .halfperm import (
    CircularHalfPerm,
    LinearHalfPerm,
    WeightRule,
    enum_ncc,
    make_linear,
    weighted_count,
)
from .perms import AnnularPerm, enum_nc, enum_snc
from .polyc import PolyC


def _intervals(lengths, start: int = 1):
    """Consecutive 1-based point ranges, one per length."""
    out = []
    at = start
    for size in lengths:
        out.append(tuple(range(at, at + size)))
        at += size
    return tuple(out)


def _check_coloring(lengths, colors, side: str) -> None:
    if len(lengths) != len(colors):
        raise ValueError(f"{side}: need one color per interval")
    if not lengths:
        raise ValueError(f"{side}: need at least one interval")
    for size in lengths:
        if size < 1:
            raise ValueError(f"{side}: interval lengths must be positive")
    q = len(colors)
    if q > 1:
        for r in range(q):
            if colors[r] == colors[(r + 1) % q]:
                raise ValueError(
                    f"{side}: cyclically adjacent intervals share color "
                    f"{colors[r]!r}"
                )


@dataclass(frozen=True)
class ColoredAnnularSpec:
    """Interval lengths and colors for the two circles, with an optional
    per-interval through-block count filter on either side."""

    outer_lengths: tuple[int, ...]
    outer_colors: tuple
    inner_lengths: tuple[int, ...]
    inner_colors: tuple
    through_filter: tuple | None = None

    def __post_init__(self) -> None:
        _check_coloring(self.outer_lengths, self.outer_colors, "outer circle")
        _check_coloring(self.inner_lengths, self.inner_colors, "inner circle")
        if self.through_filter is not None:
            outer_counts, inner_counts = self.through_filter
            for counts, lengths, side in (
                (outer_counts, self.outer_lengths, "outer"),
                (inner_counts, self.inner_lengths, "inner"),
            ):
                if counts is None:
                    continue
                if len(counts) != len(lengths):
                    raise ValueError(
                        f"{side} through-filter: need one count per interval"
                    )
                for x, size in zip(counts, lengths):
                    if not 0 <= x <= size:
                        raise ValueError(
                            f"{side} through-filter: counts must lie in "
                            f"0..interval length, got {x}"
                        )

    @property
    def m(self) -> int:
        return sum(self.outer_lengths)

    @property
    def n(self) -> int:
        return sum(self.inner_lengths)

    def outer_intervals(self) -> tuple[tuple[int, ...], ...]:
        return _intervals(self.outer_lengths)

    def inner_intervals(self) -> tuple[tuple[int, ...], ...]:
        return _intervals(self.inner_lengths, start=self.m + 1)


def _point_colors(lengths, colors) -> tuple:
    out = []
    for size, color in zip(lengths, colors):
        out.extend([color] * size)
    return tuple(out)


def _profile(m: int, outer_intervals, inner_intervals, a: AnnularPerm):
    through = [set(cyc) for cyc in a.perm.cycles() if min(cyc) <= m < max(cyc)]
    return tuple(
        tuple(sum(1 for cyc in through if cyc & set(iv)) for iv in intervals)
        for intervals in (outer_intervals, inner_intervals)
    )


def through_profile(spec: ColoredAnnularSpec, a: AnnularPerm):
    """Per-interval counts of through-cycles meeting each interval."""
    return _profile(spec.m, spec.outer_intervals(), spec.inner_intervals(), a)


def _monochromatic(point_colors, cycles) -> bool:
    return all(
        len({point_colors[p - 1] for p in cyc}) == 1 for cyc in cycles
    )


def _select(
    diagrams, outer_lengths, outer_colors, inner_lengths, inner_colors,
    outer_through=None, inner_through=None,
):
    """The annular permutations among `diagrams` whose cycles are
    monochromatic under the interval coloring and whose per-interval
    through-counts match the given ones (None leaves a side free).

    Interval lengths may be zero: an empty interval meets no cycle, so
    its through-count is zero.  No alternation of colors is required.
    """
    m = sum(outer_lengths)
    colors = _point_colors(
        tuple(outer_lengths) + tuple(inner_lengths),
        tuple(outer_colors) + tuple(inner_colors),
    )
    outer_iv = _intervals(outer_lengths)
    inner_iv = _intervals(inner_lengths, start=m + 1)
    want = (outer_through, inner_through)
    for a in diagrams:
        if not _monochromatic(colors, a.perm.cycles()):
            continue
        if want != (None, None):
            got = _profile(m, outer_iv, inner_iv, a)
            if any(w is not None and tuple(w) != g for w, g in zip(want, got)):
                continue
        yield a


def _select_spec(diagrams, spec: ColoredAnnularSpec):
    return _select(
        diagrams,
        spec.outer_lengths,
        spec.outer_colors,
        spec.inner_lengths,
        spec.inner_colors,
        *(spec.through_filter or ()),
    )


def enum_colored_snc(spec: ColoredAnnularSpec) -> tuple[AnnularPerm, ...]:
    """All annular permutations with monochromatic cycles under the spec's
    coloring, optionally filtered by per-interval through-block counts."""
    return tuple(_select_spec(enum_snc(spec.m, spec.n), spec))


def spoke_spec(
    outer_lengths, outer_colors, inner_lengths, inner_colors
) -> ColoredAnnularSpec:
    """The spec whose filter pins every interval's through-count to its
    length: each point must sit in its own through-block."""
    return ColoredAnnularSpec(
        tuple(outer_lengths),
        tuple(outer_colors),
        tuple(inner_lengths),
        tuple(inner_colors),
        through_filter=(tuple(outer_lengths), tuple(inner_lengths)),
    )


def is_spoke_diagram(a: AnnularPerm) -> bool:
    """Every cycle a two-point block with one point on each circle."""
    return all(
        len(cyc) == 2 and min(cyc) <= a.m < max(cyc) for cyc in a.perm.cycles()
    )


# ---------------------------------------------------------------------------
# colored partitions on a line
# ---------------------------------------------------------------------------


def colored_nc_partitions(point_colors) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Non-crossing partitions of [len(point_colors)] whose blocks are
    monochromatic."""
    # the cycles of a disc permutation are its increasing blocks
    return tuple(
        blocks
        for blocks in (p.cycles() for p in enum_nc(len(point_colors)))
        if _monochromatic(point_colors, blocks)
    )


def connector_weight(lengths) -> PolyC:
    """Weighted count of non-crossing partitions of the concatenated
    intervals that connect all of them (single color)."""
    intervals = _intervals(lengths)
    n = sum(lengths)
    index_of = {}
    for r, iv in enumerate(intervals):
        for p in iv:
            index_of[p] = r
    q = len(lengths)

    def connects(blocks) -> bool:
        parent = list(range(q))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for b in blocks:
            root = find(index_of[b[0]])
            for p in b[1:]:
                other = find(index_of[p])
                if other != root:
                    parent[other] = root
        return len({find(r) for r in range(q)}) == 1

    partitions = (p.cycles() for p in enum_nc(n))
    return PolyC.census(len(blocks) for blocks in partitions if connects(blocks))


def connection_pattern_expansion(lengths, colors) -> tuple[PolyC, PolyC]:
    """Two routes to the weighted count of colored non-crossing partitions
    over a row of intervals: direct enumeration, and a sum over the
    non-crossing patterns of which same-colored intervals get connected,
    each pattern contributing the product of its connector weights."""
    if len(lengths) != len(colors):
        raise ValueError("need one color per interval")
    direct = PolyC.census(map(len, colored_nc_partitions(_point_colors(lengths, colors))))

    patterns = colored_nc_partitions(tuple(colors))
    by_pattern = PolyC.zero()
    for tau in patterns:
        term = PolyC.one()
        for block in tau:
            term = term * connector_weight(
                tuple(lengths[r - 1] for r in block)
            )
        by_pattern = by_pattern + term
    return direct, by_pattern


# ---------------------------------------------------------------------------
# coefficient-contracted sums over colored annular sets
# ---------------------------------------------------------------------------


def pi_contracted_sum(
    outer_lengths,
    outer_colors,
    inner_lengths,
    inner_colors,
    outer_through=None,
    inner_through=None,
) -> PolyC:
    """Contract colored annular weights against the second-kind coefficient
    table: sum over all ways to shrink each interval, weighting interval r
    shrunk to u_r points by the coefficient of x^{u_r} in the degree-m_r
    polynomial.

    With no through filter this collapses to the spoke weight of the
    original lengths; with a filter pinning some interval to zero
    through-blocks it collapses to zero (the polynomials are centered
    against plain non-crossing weights).
    """
    return _contracted_sum(
        {}, outer_lengths, outer_colors, inner_lengths, inner_colors,
        outer_through, inner_through,
    )


def _contracted_sum(
    annuli, outer_lengths, outer_colors, inner_lengths, inner_colors,
    outer_through=None, inner_through=None,
) -> PolyC:
    """pi_contracted_sum, keeping in `annuli` each annulus it enumerates,
    keyed by (sum u, sum v)."""
    k = len(outer_lengths)
    l = len(inner_lengths)
    coeff = transition_matrix(
        Family.PI, max(tuple(outer_lengths) + tuple(inner_lengths)) + 1
    )
    total = PolyC.zero()
    for u_vec in _product(*(range(0, mr + 1) for mr in outer_lengths)):
        outer_factor = PolyC.one()
        for r in range(k):
            outer_factor = outer_factor * coeff.entry(
                outer_lengths[r], u_vec[r]
            )
        if outer_factor == PolyC.zero():
            continue
        for v_vec in _product(*(range(0, ns + 1) for ns in inner_lengths)):
            factor = outer_factor
            for s in range(l):
                factor = factor * coeff.entry(inner_lengths[s], v_vec[s])
            size = (sum(u_vec), sum(v_vec))
            if factor == PolyC.zero() or 0 in size:
                continue
            if size not in annuli:
                annuli[size] = enum_snc(*size)
            w = weighted_count(
                _select(
                    annuli[size], u_vec, outer_colors, v_vec, inner_colors,
                    outer_through, inner_through,
                ),
                WeightRule.ALL_BLOCKS,
            )
            total = total + factor * w
    return total


def product_variance_check(
    outer_lengths, outer_colors, inner_lengths, inner_colors
) -> tuple[PolyC, PolyC]:
    """Both routes to the limiting covariance of two traces of products:
    the coefficient-contracted sum over all colored annular sets, and the
    direct weight of the fully through-pinned (spoke) set.

    The two routes agree when each circle carries at least two intervals
    (so that every interval, flanked by differently-colored neighbours,
    decomposes linearly).  A circle that is a single interval is the
    province of `single_interval_variance_check`, which contracts against
    the circular table instead.
    """
    spec = spoke_spec(outer_lengths, outer_colors, inner_lengths, inner_colors)
    annuli: dict = {}
    lhs = _contracted_sum(
        annuli, outer_lengths, outer_colors, inner_lengths, inner_colors
    )
    # the sum's term with no interval shrunk (its coefficients are the
    # leading ones, all 1) has enumerated the full annulus
    rhs = weighted_count(
        _select_spec(annuli[spec.m, spec.n], spec), WeightRule.ALL_BLOCKS
    )
    return lhs, rhs


def single_interval_variance_check(m: int, n: int) -> tuple[PolyC, PolyC]:
    """Both routes to the limiting covariance of two single-letter traces
    of one color: the circular-table-contracted sum over whole-circle
    annular sets, and the weight of the spoke set (m rotations of weight
    c^m when the sizes match, zero otherwise)."""
    if m < 1 or n < 1:
        raise ValueError("circle sizes must be positive")
    coeff = transition_matrix(Family.GAMMA_TILDE, max(m, n) + 1)
    lhs = PolyC.zero()
    for u in range(1, m + 1):
        for v in range(1, n + 1):
            factor = coeff.entry(m, u) * coeff.entry(n, v)
            if factor == PolyC.zero():
                continue
            spec = ColoredAnnularSpec((u,), ("a",), (v,), ("a",))
            lhs = lhs + factor * weighted_count(
                enum_colored_snc(spec), WeightRule.ALL_BLOCKS
            )
    rhs = weighted_count(
        enum_colored_snc(spoke_spec((m,), ("a",), (n,), ("a",))),
        WeightRule.ALL_BLOCKS,
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# interval decomposition of open-carrying circular half-permutations
# ---------------------------------------------------------------------------


def enum_colored_ncc(lengths, colors) -> tuple[CircularHalfPerm, ...]:
    """All open-carrying (k >= 1) circular half-permutations on the colored
    circle whose cycles are monochromatic."""
    _check_coloring(tuple(lengths), tuple(colors), "circle")
    total = sum(lengths)
    point_colors = _point_colors(lengths, colors)
    out = []
    for k in range(1, total + 1):
        for h in enum_ncc(total, k):
            if _monochromatic(point_colors, h.perm.cycles()):
                out.append(h)
    return tuple(out)


def open_profile(h: CircularHalfPerm, lengths) -> tuple[int, ...]:
    """Number of open blocks meeting each interval."""
    intervals = _intervals(lengths)
    opens = h.open_sets()
    return tuple(
        sum(1 for b in opens if b & set(iv)) for iv in intervals
    )


def restrict_to_intervals(
    h: CircularHalfPerm, lengths
) -> tuple[LinearHalfPerm, ...]:
    """Split a circular half-permutation along consecutive intervals.

    Requires every interval to meet at least one open block; then no block
    can span two intervals, and each interval's blocks (relabeled to start
    at 1, keeping their open/closed status) form a linear
    half-permutation.
    """
    if sum(lengths) != h.n:
        raise ValueError("interval lengths must sum to the circle size")
    intervals = _intervals(lengths)
    opens = set(h.open_sets())
    profile = open_profile(h, lengths)
    if any(x == 0 for x in profile):
        raise ValueError("every interval must meet an open block")
    pieces = []
    for iv in intervals:
        iv_set = set(iv)
        offset = iv[0] - 1
        blocks = []
        open_blocks = []
        for cyc in h.perm.cycles():
            hit = set(cyc) & iv_set
            if not hit:
                continue
            if not set(cyc) <= iv_set:
                raise ValueError(f"block {cyc} spans intervals")
            relabeled = tuple(sorted(p - offset for p in cyc))
            blocks.append(relabeled)
            if frozenset(cyc) in opens:
                open_blocks.append(relabeled)
        pieces.append(make_linear(len(iv), blocks, open_blocks))
    return tuple(pieces)
