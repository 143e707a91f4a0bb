"""Permutations and non-crossing enumeration on the disc and the annulus.

Points are labeled 1..n.  A partition into blocks is identified with the
permutation whose cycles traverse each block in increasing order; a
partition of the disc is non-crossing exactly when the cycle counts of the
permutation and its complement saturate the genus bound

    #(p) + #(complement(p)) == n + 1.

On the annulus with m outer and n inner points the reference rotation has
two cycles (1..m)(m+1..m+n) and the saturation reads #(p) + #(rot p^-1)
== m + n, together with at least one cycle meeting both circles.

Enumeration sweeps set partitions, so that the structured constructions
elsewhere in the package are checked against an unstructured route.  On
the disc each partition is tested by a stack scan of its blocks (a block
met again must be the innermost open one), and only the Catalan(n)
survivors become permutations; `is_noncrossing`, the saturation test,
stays the public predicate and the test suite holds the two against each
other.  On the annulus every set partition is expanded into cyclic
orderings of its blocks and each candidate goes through the saturation
filter.

Construction checks: the public `Perm(image)` and `AnnularPerm(m, n,
perm)` always validate.  `enum_snc` builds its annuli and their
permutations through `_unchecked`, skipping both `__post_init__`s,
because every image it wraps has just passed the saturation filter;
`halfperm` uses the same path for the halves its generators and `cut`
build.  `complement`, `_annular_complement` and `Perm.induced` build
unchecked too, since each maps a permutation to a permutation.

A permutation keeps its cycles once walked, and two constructors seed
them instead: `enum_nc` builds each surviving partition's permutation
through `_from_blocks`, unchecked, with the partition's blocks as its
cycles, and the checked `partition_to_perm` seeds the blocks it was
given, sorted.  `tests/test_cycle_cache.py` holds the cycles of every
permutation the diagram layer builds to a fresh walk of its image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _product

from .limits import ANNULAR_CAP


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` with every field given,
    built without running its `__post_init__` checks.

    Only generators whose output is valid by construction build through
    here; the test suite holds each such diagram to the checked
    constructor.
    """
    obj = object.__new__(cls)
    # field by field, as the generated __init__ does: filling obj.__dict__
    # instead costs about 180 more bytes per diagram (enum_ncl(9, 2) under
    # tracemalloc, its discs' kept cycles included)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Perm:
    """A permutation of {1, ..., n}, stored as its image tuple.

    Its image is walked into cycles at most once: `cycles()` keeps them in
    `_cycles`, which is no field, so equality, hashing and the repr read
    the image alone.  A constructor that has the cycles in hand seeds them.
    """

    image: tuple[int, ...]
    # the cycles, once walked or seeded; set per instance
    _cycles = None

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image}")

    @property
    def size(self) -> int:
        return len(self.image)

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Perm":
        img = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if a in seen:
                    raise ValueError(f"point {a} appears twice")
                seen.add(a)
                img[a - 1] = b
        return cls(tuple(img))

    def inverse(self) -> "Perm":
        return Perm(tuple(_inverse_image(self.image)))

    def compose(self, other: "Perm") -> "Perm":
        """(self . other)(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Perm(tuple(self.image[j - 1] for j in other.image))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycles rotated to start at their minimum, sorted by minimum."""
        if self._cycles is not None:
            return self._cycles
        image = self.image
        seen = [False] * (len(image) + 1)
        out = []
        for i in range(1, len(image) + 1):
            if not seen[i]:
                seen[i] = True
                cyc = [i]
                j = image[i - 1]
                while j != i:
                    seen[j] = True
                    cyc.append(j)
                    j = image[j - 1]
                out.append(tuple(cyc))
        cycles = tuple(out)
        object.__setattr__(self, "_cycles", cycles)
        return cycles

    def num_cycles(self) -> int:
        return len(self.cycles())

    def cycle_containing(self, i: int) -> tuple[int, ...]:
        cyc = [i]
        j = self.image[i - 1]
        while j != i:
            cyc.append(j)
            j = self.image[j - 1]
        k = cyc.index(min(cyc))
        return tuple(cyc[k:] + cyc[:k])

    def induced(self, points: tuple[int, ...]) -> "Perm":
        """First-return permutation on a subset, relabeled order-preserving to 1..len."""
        pts = tuple(sorted(points))
        index = {p: i + 1 for i, p in enumerate(pts)}
        pset = set(pts)
        img = []
        for p in pts:
            q = self.image[p - 1]
            while q not in pset:
                q = self.image[q - 1]
            img.append(index[q])
        return _unchecked(Perm, image=tuple(img))

    def __str__(self) -> str:
        return format_blocks(self.cycles())


def _inverse_image(image: tuple[int, ...]) -> list[int]:
    inv = [0] * len(image)
    for i, j in enumerate(image, start=1):
        inv[j - 1] = i
    return inv


# Blocks whose text `format_blocks` keeps at once: a few thousand, well
# under 2 MB.
_BLOCK_TEXTS_MAX = 4096


class _BlockTexts(dict):
    """Block -> its points, comma-separated; each text is formatted once,
    and the table is cleared when full, so memory stays bounded."""

    def __missing__(self, block: tuple[int, ...]) -> str:
        if len(self) == _BLOCK_TEXTS_MAX:
            self.clear()
        text = self[block] = ",".join(map(str, block))
        return text


_block_text = _BlockTexts().__getitem__


def format_blocks(blocks, left: str = "(", right: str = ")") -> str:
    """The blocks as text, each between `left` and `right`: "(1,3)(2)".

    Every diagram's text form is made here."""
    if not blocks:
        return ""
    return left + (right + left).join(map(_block_text, blocks)) + right


def long_cycle(n: int) -> Perm:
    if n == 0:
        return Perm(())
    return Perm(tuple(range(2, n + 1)) + (1,))


def annular_rotation(m: int, n: int) -> Perm:
    """The two-cycle rotation (1..m)(m+1..m+n)."""
    outer = tuple(range(2, m + 1)) + (1,)
    inner = tuple(range(m + 2, m + n + 1)) + (m + 1,)
    return Perm(outer + inner)


def complement(p: Perm) -> Perm:
    """The complement permutation on the disc: the long cycle composed
    with the inverse, i -> p^-1(i) mod n + 1."""
    n = p.size
    return _unchecked(Perm, image=tuple([j % n + 1 for j in _inverse_image(p.image)]))


def _annular_complement(m: int, n: int, p: Perm) -> Perm:
    """annular_rotation(m, n) composed with the inverse of p."""
    return _unchecked(Perm, image=tuple([
        j % m + 1 if j <= m else m + (j - m) % n + 1 for j in _inverse_image(p.image)
    ]))


def is_noncrossing(p: Perm) -> bool:
    if p.size == 0:
        return True
    return p.num_cycles() + complement(p).num_cycles() == p.size + 1


# ---------------------------------------------------------------------------
# disc enumeration
# ---------------------------------------------------------------------------


def set_partitions(n: int):
    """All set partitions of {1..n} as tuples of increasing blocks,
    in restricted-growth-string order.

    Point x joins each block in turn and then opens a block of its own;
    the partitions of the points below x are grown, never rebuilt.
    """
    if n == 0:
        yield ()
        return

    def grow(x: int, blocks: tuple):
        if x == n:
            for i in range(len(blocks)):
                yield blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:]
            yield blocks + ((x,),)
            return
        for i in range(len(blocks)):
            yield from grow(x + 1, blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:])
        yield from grow(x + 1, blocks + ((x,),))

    yield from grow(1, ())


def partition_to_perm(blocks) -> Perm:
    """The permutation traversing each block in increasing order, checked
    and seeded with its cycles: the blocks, sorted."""
    cycles = tuple(sorted([tuple(sorted(b)) for b in blocks]))
    p = Perm.from_cycles(sum(map(len, cycles)), cycles)
    object.__setattr__(p, "_cycles", cycles)
    return p


def _from_blocks(n: int, blocks) -> Perm:
    """The permutation whose cycles are `blocks`, increasing tuples that
    partition 1..n listed by least point, built unchecked and seeded with
    them."""
    img = [0] * n
    for b in blocks:
        prev = b[-1]
        for x in b:
            img[prev - 1] = x
            prev = x
    return _unchecked(Perm, image=tuple(img), _cycles=blocks)


def blocks_noncrossing(blocks) -> bool:
    """Whether a set partition of 1..n, given as increasing blocks (as
    `set_partitions` yields them), is non-crossing.

    Scanning 1..n, a block opens at its least point and closes at its
    greatest; a block met again in between must be the innermost open one.
    """
    n = sum(len(b) for b in blocks)
    owner = [0] * (n + 1)
    for index, block in enumerate(blocks):
        for x in block:
            owner[x] = index
    open_blocks: list[int] = []
    for i in range(1, n + 1):
        index = owner[i]
        block = blocks[index]
        if i == block[0]:
            if i != block[-1]:
                open_blocks.append(index)
        elif open_blocks[-1] != index:
            return False
        elif i == block[-1]:
            open_blocks.pop()
    return True


@lru_cache(maxsize=4)
def enum_nc(n: int) -> tuple[Perm, ...]:
    """All non-crossing partitions of the disc, as increasing-cycle permutations.

    The half-permutation enumerators ask for the same disc once per open
    block count, so a few recent sizes are kept; callers that reuse a
    larger set hold on to it themselves.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # `set_partitions` lists each partition's blocks by least point
    found = [
        _from_blocks(n, blocks)
        for blocks in set_partitions(n)
        if blocks_noncrossing(blocks)
    ]
    found.sort(key=lambda p: p.image)
    return tuple(found)


# ---------------------------------------------------------------------------
# annular enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnularPerm:
    """A non-crossing permutation of an (m, n)-annulus.

    Outer points are 1..m, inner points m+1..m+n.  Validity (connectivity +
    saturation) is enforced on construction.
    """

    m: int
    n: int
    perm: Perm

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("both circles need at least one point")
        if self.perm.size != self.m + self.n:
            raise ValueError("permutation size must be m + n")
        if not is_annular_noncrossing(self.m, self.n, self.perm):
            raise ValueError(
                f"{self.perm} is not a connected non-crossing permutation "
                f"of the ({self.m},{self.n})-annulus"
            )

    def complement_perm(self) -> Perm:
        return _annular_complement(self.m, self.n, self.perm)

    def __str__(self) -> str:
        return str(self.perm)


def is_annular_noncrossing(m: int, n: int, p: Perm) -> bool:
    if p.size != m + n:
        return False
    connected = any(min(cyc) <= m < max(cyc) for cyc in p.cycles())
    if not connected:
        return False
    return p.num_cycles() + _annular_complement(m, n, p).num_cycles() == m + n


# Blocks whose orderings `iter_snc_images` keeps at once: every block of
# an annulus with m + n <= 10 points, under 2 MB at most.
_SNC_ORDERINGS_MAX = 1024


def _snc_orderings(b: tuple[int, ...], m: int) -> tuple:
    """The geometrically admissible cyclic orderings of one block for
    `iter_snc_images`, each as a 0-based point sequence (each point maps
    to the next)."""
    b0 = tuple(x - 1 for x in b)  # 0-based, increasing
    split = 0
    while split < len(b0) and b0[split] < m:
        split += 1
    outer, inner = b0[:split], b0[split:]
    if not outer or not inner:
        return (b0,)
    return tuple(
        outer[r:] + outer[:r] + inner[t:] + inner[:t]
        for r in range(len(outer))
        for t in range(len(inner))
    )


def iter_snc_images(m: int, n: int):
    """Yield image tuples of all connected non-crossing permutations of
    the (m, n)-annulus, streamed in set-partition sweep order.

    Each set partition of [m + n] is expanded into candidate cycle
    orderings and every candidate is pushed through the cycle-count
    saturation filter.  Only geometrically admissible orderings are
    tried: a pure block is traversed increasingly, and a block meeting
    both circles is traversed as one contiguous outer run followed by one
    contiguous inner run, each run a rotation of the sorted points (a
    strip can attach to either circle at any offset).  The test suite
    holds the stream against a sweep over every cyclic ordering of every
    block on small annuli, along with the closed-form count.
    """
    total = m + n
    g = [0] * total  # the two-arc rotation, 0-based
    for i in range(total):
        g[i] = (i + 1) % m if i < m else m + (i - m + 1) % n
    rng = range(total)
    # block -> its candidates; cleared when full, so memory stays bounded
    orderings: dict[tuple[int, ...], tuple] = {}

    for blocks in set_partitions(total):
        nb = len(blocks)
        target = total - nb
        if target < 1:
            continue
        if not any(b[0] <= m < b[-1] for b in blocks):
            continue
        per_block = []
        for b in blocks:
            cands = orderings.get(b)
            if cands is None:
                if len(orderings) == _SNC_ORDERINGS_MAX:
                    orderings.clear()
                cands = orderings[b] = _snc_orderings(b, m)
            per_block.append(cands)
        img = [0] * total
        comp = [0] * total  # the rotation composed with the inverse of img
        for combo in _product(*per_block):
            for seq in combo:
                i = seq[-1]
                for j in seq:
                    img[i] = j
                    comp[j] = g[i]
                    i = j
            seen = [False] * total
            cnt = 0
            for i0 in rng:
                if not seen[i0]:
                    cnt += 1
                    j = i0
                    while not seen[j]:
                        seen[j] = True
                        j = comp[j]
            if cnt == target:
                yield tuple([x + 1 for x in img])


def _check_annulus(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("both circles need at least one point")
    if m + n > ANNULAR_CAP:
        raise ValueError(
            f"m+n={m + n} exceeds the enumeration cap {ANNULAR_CAP} "
            "(enumeration cost grows quickly)"
        )


def enum_snc(m: int, n: int) -> tuple[AnnularPerm, ...]:
    """All connected non-crossing permutations of the (m, n)-annulus,
    sorted by image tuple.

    Materializes the stream from iter_snc_images and keeps no copy; a
    caller that needs an annulus twice holds on to it, and for large
    annuli (m + n near the cap) prefer iterating the stream directly.
    """
    _check_annulus(m, n)
    images = sorted(iter_snc_images(m, n))
    return tuple(
        _unchecked(AnnularPerm, m=m, n=n, perm=_unchecked(Perm, image=img)) for img in images
    )
