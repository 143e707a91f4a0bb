"""Two-color dot encoding of circular half-permutations.

A dot structure places a black or white dot on each of the 2n positions
1, 1', 2, 2', ..., n, n' around a circle.  The structures with j black
dots on primed positions and j + k white dots on unprimed positions are
in bijection with the circular half-permutations of [n] having k open
and j closed blocks, a designated block not counted (j is the weight
exponent).  Since the number of such dot
structures is plainly C(n,j)·C(n,j+k), the bijection proves the
closed-block generating identities that the transition matrices of
`families` compute by linear algebra.

Decoding runs two rounds of cyclic first-available matching (blacks
consume the nearest available white counter-clockwise, then the leftover
primed whites consume unprimed whites the same way), squeezes i and i'
into one point, and reads blocks off the chord components.

The one-point recursion of the circular halves needs no map of its own:
deleting the last point's two dots, after a color flip in the one case
that would leave too few whites (both dots white at k = 0), sorts the
structures by the four color patterns at (n, n') into the four recursion
terms.  Through the encoding that is only a count of colors, the
C(n,j)·C(n,j+k) census, which `verify bijections` records together with
the round trip of the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .halfperm import CircularHalfPerm, initial_point, make_circular
from .perms import Perm, complement, partition_to_perm

BLACK = "black"
WHITE = "white"


@dataclass(frozen=True)
class DotStructure:
    """Colors for the 2n dot positions; index i holds point i+1's dots."""

    n: int
    unprimed: tuple[str, ...]
    primed: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.unprimed) != self.n or len(self.primed) != self.n:
            raise ValueError("need one color per point on each rail")
        for color in self.unprimed + self.primed:
            if color not in (BLACK, WHITE):
                raise ValueError(f"bad color {color!r}")
        if self.unprimed.count(WHITE) < self.primed.count(BLACK):
            raise ValueError(
                "malformed dot structure: fewer white unprimed dots than "
                "black primed dots"
            )

    @property
    def j(self) -> int:
        """Number of black dots on primed positions (closed-block count)."""
        return self.primed.count(BLACK)

    @property
    def k(self) -> int:
        """Open-block count: white unprimed dots in excess of j."""
        return self.unprimed.count(WHITE) - self.j

    def __str__(self) -> str:
        sym = {BLACK: "b", WHITE: "w"}
        return " ".join(
            sym[u] + sym[p] for u, p in zip(self.unprimed, self.primed)
        )


def enum_dots(n: int, j: int, k: int) -> tuple[DotStructure, ...]:
    """All dot structures with j black primed and j+k white unprimed dots."""
    if n < 0 or j < 0 or k < 0 or j > n or j + k > n:
        raise ValueError(f"need 0 <= j, j+k <= n, got n={n}, j={j}, k={k}")
    out = []
    for black_primed in combinations(range(n), j):
        primed = [WHITE] * n
        for i in black_primed:
            primed[i] = BLACK
        for white_unprimed in combinations(range(n), j + k):
            unprimed = [BLACK] * n
            for i in white_unprimed:
                unprimed[i] = WHITE
            out.append(DotStructure(n, tuple(unprimed), tuple(primed)))
    return tuple(out)


def dot_encode(h: CircularHalfPerm) -> DotStructure:
    """Color the 2n dots from a circular half-permutation.

    Whites go on the initial point of every block (walked from the
    collecting cycle, or from the designated block) and on every primed
    position that is not the final point of a closed block; a designated
    block gets no marks at all (black unprimed, white primed throughout).
    """
    n = h.n
    if n == 0:
        return DotStructure(0, (), ())
    unprimed = [BLACK] * n
    primed = [WHITE] * n
    perm = h.perm
    ref = h.bbar or h.designated
    # a cycle starts at its least point, so its minimum names it; the
    # point before `init` in its cycle is perm^-1(init)
    unmarked = h.designated[0] if h.designated else None
    open_mins = {min(b) for b in h.opens}
    for block in perm.cycles():
        if block[0] == unmarked:
            continue
        init = initial_point(perm, block, ref)
        unprimed[init - 1] = WHITE
        if block[0] not in open_mins:
            primed[block[block.index(init) - 1] - 1] = BLACK
    return DotStructure(n, tuple(unprimed), tuple(primed))


def _cyclic_match(positions, is_open):
    """Cyclic first-available matching on one pass.

    Scanning clockwise, openers stack up and each closer takes the
    nearest unmatched opener behind it; closers left over at the end
    wrap around to the latest surviving openers (t-th leftover closer
    with the (W+1-t)-th leftover opener).  Returns the matched pairs as
    (opener, closer) and the openers that stayed unmatched.
    """
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    hanging: list[int] = []
    for pos in positions:
        if is_open(pos):
            stack.append(pos)
        elif stack:
            pairs.append((stack.pop(), pos))
        else:
            hanging.append(pos)
    if len(hanging) > len(stack):
        raise ValueError("more closers than openers")
    w = len(stack)
    for t, pos in enumerate(hanging, start=1):
        pairs.append((stack[w - t], pos))
    return pairs, stack[: w - len(hanging)]


def _walk_accepts(colors, n: int, point: int) -> bool:
    """Clockwise white-minus-black count from the point's unprimed dot
    (own dot included) never dips below zero."""
    run = 0
    start = 2 * (point - 1)
    for step in range(2 * n):
        run += 1 if colors[(start + step) % (2 * n)] == WHITE else -1
        if run < 0:
            return False
    return True


def dot_decode(d: DotStructure) -> CircularHalfPerm:
    """Rebuild the circular half-permutation a dot structure encodes."""
    n = d.n
    if n == 0:
        return CircularHalfPerm(n=0, perm=Perm(()))
    j, k = d.j, d.k
    colors = [None] * (2 * n)
    for i in range(n):
        colors[2 * i] = d.unprimed[i]
        colors[2 * i + 1] = d.primed[i]

    pairs, leftover = _cyclic_match(
        range(2 * n), lambda pos: colors[pos] == WHITE
    )
    second, rest = _cyclic_match(leftover, lambda pos: pos % 2 == 0)
    if rest or len(second) != k:
        raise AssertionError(f"second matching: {len(second)} pairs, {len(rest)} left, k={k}")

    # components of the chord graph after squeezing i with i'
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs + second:
        ra, rb = find(a // 2 + 1), find(b // 2 + 1)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(tuple(sorted(g)) for g in groups.values())
    perm = partition_to_perm(blocks)

    if k == 0:
        if perm.num_cycles() == j:
            members = tuple(
                i for i in range(1, n + 1) if _walk_accepts(colors, n, i)
            )
            if not members:
                raise AssertionError("no point starts a balanced walk")
            comp = complement(perm)
            if set(comp.cycle_containing(members[0])) != set(members):
                raise AssertionError(f"walk-accepted points {members} are no complement cycle")
            return CircularHalfPerm(n=n, perm=perm, bbar=members)
        if perm.num_cycles() != j + 1:
            raise AssertionError(f"{perm.num_cycles()} blocks decoded for j={j}")
        unmarked = [
            b
            for b in blocks
            if all(d.primed[i - 1] == WHITE for i in b)
        ]
        if len(unmarked) != 1:
            raise AssertionError(f"{len(unmarked)} unmarked blocks, expected one")
        return CircularHalfPerm(n=n, perm=perm, designated=unmarked[0])

    initials = sorted(opener // 2 + 1 for opener, _ in second)
    by_point = {i: b for b in blocks for i in b}
    open_sets = {frozenset(by_point[i]) for i in initials}
    if len(open_sets) != k:
        raise AssertionError(f"{len(open_sets)} open blocks decoded, expected {k}")
    bbar = complement(perm).cycle_containing(initials[0])
    if not set(initials) <= set(bbar):
        raise AssertionError(f"initial points {initials} leave the cycle {bbar}")
    h = make_circular(n, perm, open_sets, bbar)
    if h.initial_points() != tuple(initials):
        raise AssertionError(f"initial points {h.initial_points()}, expected {initials}")
    return h
