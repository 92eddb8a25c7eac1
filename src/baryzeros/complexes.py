"""Squarefree-divisor complexes and the sieve machinery behind them.

For an integer n >= 1 the associated complex has one simplex for every
squarefree k <= n, namely the set of primes dividing k (the empty set
for k = 1).  Its reduced Euler characteristic equals minus the Mertens
function at n, term by term: a squarefree k with w prime factors is one
face of dimension w - 1 and adds (-1)^(w-1) = -mu(k).  So the sieve
sums these terms and stores chi itself, and ``verify`` recomputes it
from the faces.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from array import array
from typing import Iterable, Iterator, NamedTuple

from .subdivision import shift_matrix

SIEVE_MEMORY_BUDGET = 10**8
EXPLICIT_COMPLEX_BOUND = 10**4
SUBDIVISION_OUTPUT_CAP = 2_000_000


class ConsistencyError(RuntimeError):
    """Two supposedly equal quantities computed along different routes differ."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured size budget."""


# ---------------------------------------------------------------------------
# sieve


class SieveTable(NamedTuple):
    """Squarefree weights and Euler characteristics up to ``limit``.

    weight[k] is the number of distinct prime factors for squarefree k
    and -1 otherwise; weight[1] = 0.  chi[x] is the Euler characteristic
    of the complex at x, minus the running Moebius sum up to x, the
    Moebius value of k being (-1)^weight[k] for weight[k] >= 0 and 0
    otherwise.  Slot 0 of both is 0.  Both are compact arrays allocated
    at their final size: weight an ``array('b')``, one byte per slot, and
    chi an ``array('i')``, four, summed from the weight bytes (see
    :func:`_running_sums`).  Every scan reads chi in place.
    """

    limit: int
    weight: array
    chi: array


# Byte maps for bytearray.translate.  _COUNT_PRIME adds one prime factor to
# a count (counts stay below 9 within the budget) and keeps the squareful
# mark 0xff.  _IS_ZERO marks the zero bytes with 1 and _ZERO_TO_ONE turns
# them into 1.  _TERM_PLUS_ONE maps a weight byte to its face term
# -(-1)^w lifted to {0, 1, 2}: an odd count to 2, an even one to 0 and the
# mark, which adds no face, to 1.
_COUNT_PRIME = bytes(range(1, 0xFF)) + b"\xfe\xff"
_IS_ZERO = b"\1" + bytes(0xFF)
_ZERO_TO_ONE = b"\1" + bytes(range(1, 0x100))
_TERM_PLUS_ONE = bytes(2 if w & 1 else 0 for w in range(0xFF)) + b"\1"

# Slots per big-integer pass.  It keeps each pass's transients to a few
# tens of KiB, and a block's running sums, |sum| <= _BLOCK < 2^15, inside
# one offset 16-bit field.
_BLOCK = 4096


def _running_sums(weights) -> array:
    """chi from the weight bytes, read unsigned: the running sums of their
    face terms as an ``array('i')``, a Python step per L = _BLOCK bytes.

    _TERM_PLUS_ONE puts a block's terms t_i, lifted by one, in 16-bit
    fields: y = sum t_i 2^(16i) + 2^15 after subtracting ones = 1 + 2^16 +
    ... + 2^(16(L-1)).  The exact quotient ((y << 16L) - y) // 0xFFFF is
    y * ones, whose field i holds t_0 + ... + t_i + 2^15; |t_0 + ... + t_i|
    <= L < 2^15 keeps each inside its field.  Widened to 32-bit fields and
    raised by the carry from earlier blocks plus 2^31 - 2^15, each field
    holds chi + 2^31 in [0, 2^32) for every chi an int32 holds, and
    flipping bit 31 leaves chi as a little-endian int32.  The carry starts
    at 1, so slot 0's byte 0 (an even count, term -1) sums to 0.  The last
    block is padded with the squareful mark, term 0, and its sums are cut
    off; chi is allocated once, at its final size.
    """
    ones = int.from_bytes(b"\1\0" * _BLOCK, "little")
    wide_ones = int.from_bytes(b"\1\0\0\0" * _BLOCK, "little")
    top_bits = wide_ones << 31
    shift = 16 * _BLOCK
    size = len(weights)
    chi = array("i", [0]) * size
    carry = 1
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        fields = bytearray(2 * _BLOCK)
        fields[::2] = bytes(weights[lo:hi]).ljust(_BLOCK, b"\xff").translate(_TERM_PLUS_ONE)
        y = int.from_bytes(fields, "little") - ones + (1 << 15)
        sums = (((y << shift) - y) // 0xFFFF & ((1 << shift) - 1)).to_bytes(2 * _BLOCK, "little")
        wide = bytearray(4 * _BLOCK)
        wide[::4] = sums[::2]
        wide[1::4] = sums[1::2]
        x = int.from_bytes(wide, "little") + (carry + (1 << 31) - (1 << 15)) * wide_ones
        chi[lo:hi] = array("i", (x ^ top_bits).to_bytes(4 * _BLOCK, "little")[: 4 * (hi - lo)])
        carry += int.from_bytes(sums[-2:], "little") - (1 << 15)
    if sys.byteorder == "big":
        chi.byteswap()
    return chi


def build_sieve(limit: int) -> SieveTable:
    """Squarefree weights from slice operations: one round per prime up to
    sqrt(limit), then one pass per squarefree cofactor.

    A slot still 0 past the last prime is the next prime p: every slot
    p, 2p, ... gains one prime factor in a single ``translate`` of the
    slice, and the slots p^2, 2p^2, ... take the squareful mark 0xff,
    which later rounds keep.  Once p^2 > limit the slots still 0 past
    slot 1 are the primes q > sqrt(limit); each n has at most one, and
    its cofactor m = n/q is below p.  So each squarefree m > 1, largest
    first, adds the 0/1 mask of those zeros to the slots m, 2m, ... as
    little-endian integers, a block at a time; a slot m*q holds
    weight(m) <= 8 and every other slot gains 0, so no byte carries, and
    no zero slot changes.  m = 1 comes last, folded into the one copy of
    the bytes into weight (allocated at its final size): the zeros past
    slot 1 become 1.  So no Python loop visits every n or every prime.  The
    bytes read as signed give weight, the mark as -1; chi is summed from
    weight's bytes (:func:`_running_sums`) after the raw bytes are dropped.
    ``SIEVE_MEMORY_BUDGET`` bounds the number of slots.
    """
    if limit < 1:
        raise ValueError("sieve limit must be at least 1")
    if limit > SIEVE_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the configured budget {SIEVE_MEMORY_BUDGET}"
        )
    size = limit + 1
    raw = bytearray(size)
    p = raw.find(0, 2)
    while 0 < p and p * p <= limit:
        raw[p::p] = raw[p::p].translate(_COUNT_PRIME)
        square = p * p
        raw[square::square] = b"\xff" * len(range(square, size, square))
        p = raw.find(0, p + 1)
    if p > 0:
        for m in range(limit // p, 1, -1):
            if raw[m] == 0xFF:
                continue
            stop = limit // m + 1
            for lo in range(p, stop, _BLOCK):
                hi = min(lo + _BLOCK, stop)
                slots = slice(lo * m, hi * m, m)
                mask = raw[lo:hi].translate(_IS_ZERO)
                total = int.from_bytes(raw[slots], "little") + int.from_bytes(mask, "little")
                raw[slots] = total.to_bytes(hi - lo, "little")
    weight = array("b", [0]) * size
    weights = memoryview(weight).cast("B")
    weights[2:] = raw[2:].translate(_ZERO_TO_ONE)
    del raw
    return SieveTable(limit, weight, _running_sums(weights))


_shared_sieve: SieveTable | None = None


def shared_sieve(need: int) -> SieveTable:
    """The module-level sieve every library function reads, grown on demand
    (never shrunk)."""
    global _shared_sieve
    if _shared_sieve is None or _shared_sieve.limit < need:
        _shared_sieve = build_sieve(max(need, 4096))
    return _shared_sieve


def mertens(x: int) -> int:
    """Moebius summatory function at x."""
    if x < 1:
        raise ValueError(f"x={x} must be at least 1")
    return -shared_sieve(x).chi[x]


# ---------------------------------------------------------------------------
# dimension via primorials
#
# P_j is the product of the first j primes.  The table runs from P_0 = 1 to
# P_16 ~ 3.26e19 over the 16 primes through 53, far past the sieve budget.

_PRIMORIALS = tuple(itertools.accumulate(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53), operator.mul, initial=1
))

# P_2 = 6, the least n of dimension 1: n >= DIM1_START exactly when dim_of(n) >= 1.
DIM1_START = _PRIMORIALS[2]


def dim_of(n: int) -> int:
    """Dimension of the squarefree-divisor complex: the d with
    P_{d+1} <= n < P_{d+2}, so dim_of(1) == -1.  Defined for n < P_16."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n >= _PRIMORIALS[-1]:
        raise ValueError(f"n={n} is not below P_16 = {_PRIMORIALS[-1]}, where dimensions end")
    return bisect.bisect_right(_PRIMORIALS, n) - 2


def dimension_runs(start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(d, lo, hi) for each maximal run lo <= n < hi of constant
    dim_of(n) = d, covering start <= n < stop in order.  A run of
    dimension d ends at P_{d+2}."""
    n = start
    while n < stop:
        d = dim_of(n)
        hi = min(stop, _PRIMORIALS[d + 2])
        yield d, n, hi
        n = hi


# ---------------------------------------------------------------------------
# f-vectors


class FVector(NamedTuple("FVector", [("counts", tuple)])):
    """Face counts (f_{-1}, f_0, ..., f_d) of a complex of dimension d.

    The leading entry counts the empty simplex and is always 1; the
    trailing entry is positive (a complex of dimension d has at least one
    d-simplex).  ``count(i)`` shadows ``tuple.count``.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if not counts:
            raise ValueError("f-vector cannot be empty")
        if counts[0] != 1:
            raise ValueError("f_{-1} must be 1 (one empty simplex)")
        if any(c < 0 for c in counts):
            raise ValueError("face counts must be nonnegative")
        if counts[-1] == 0:
            raise ValueError("top face count must be positive")
        return super().__new__(cls, counts)

    @property
    def dim(self) -> int:
        return len(self.counts) - 2

    def count(self, i: int) -> int:
        """f_i with i in -1..dim."""
        if not (-1 <= i <= self.dim):
            raise IndexError(f"i={i} outside -1..{self.dim}")
        return self.counts[i + 1]

    def euler_char(self) -> int:
        """Reduced Euler characteristic: alternating sum starting at -f_{-1}."""
        total = 0
        for idx, c in enumerate(self.counts):
            total += c if idx % 2 else -c
        return total


def h_poly(fv: FVector) -> tuple[int, ...]:
    """h-polynomial: the f-polynomial sum f_i z^(d - i) composed with z - 1.

    The reversed ``shift_matrix(dim)`` image of the face counts: a tuple
    of ints, highest degree first, as ``rootfinding.find_roots`` reads it.
    Monic of degree dim + 1 with constant term (-1)^dim times the Euler
    characteristic.  Defined for dim >= 0, where shift_matrix is: for the
    empty complex all three give (1,), not its Euler characteristic -1,
    and shift_matrix raises ValueError.
    """
    return shift_matrix(fv.dim).apply(fv.counts)[::-1]


def summary(n: int) -> FVector:
    """f-vector of the complex at n, its Euler characteristic cross-checked
    against minus the Mertens value.

    f_{w-1} is the number of k <= n of weight w, counted with one
    ``bytes.count`` per weight over the sieve's bytes.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    table = shared_sieve(n)
    faces = memoryview(table.weight)[1 : n + 1].tobytes()
    fv = FVector(tuple(map(faces.count, range(dim_of(n) + 2))))
    chi, sieve_chi = fv.euler_char(), table.chi[n]
    if chi != sieve_chi:
        raise ConsistencyError(
            f"euler characteristic {chi} and Mertens value "
            f"{-sieve_chi} disagree at n={n}"
        )
    return fv


def chi_profile(limit: int) -> memoryview:
    """Euler characteristics for all n <= limit, indexed by n, slot 0 = 0.

    A read-only view of the sieve's chi array, so no value is copied;
    the ``euler-equals-minus-mertens`` check recomputes chi from the faces.
    A view never equals a list, and lacks ``count`` and ``index``.
    """
    if limit < 0:
        raise ValueError(f"limit={limit} must be nonnegative")
    return memoryview(shared_sieve(limit).chi)[: limit + 1].toreadonly()


# ---------------------------------------------------------------------------
# explicit complexes


class SimplicialComplex(NamedTuple):
    """Abstract simplicial complex: a set of frozensets closed downward.

    Always contains the empty simplex.  Vertex labels must be hashable
    and mutually sortable (ints, strings, or the tuples produced by
    subdivision).
    """

    simplices: frozenset

    @classmethod
    def from_facets(cls, facets: Iterable) -> "SimplicialComplex":
        """Downward closure of the given generating faces."""
        out = {frozenset()}
        for facet in facets:
            members = tuple(facet)
            for size in range(1, len(members) + 1):
                for sub in itertools.combinations(members, size):
                    out.add(frozenset(sub))
        return cls(frozenset(out))

    def validate(self) -> None:
        """Raise if some face is missing a subset (closure violation)."""
        present = self.simplices
        if frozenset() not in present:
            raise ValueError("missing the empty simplex")
        for s in present:
            for v in s:
                smaller = s - {v}
                if smaller not in present:
                    raise ValueError(f"missing face {set(smaller)} of {set(s)}")

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def f_vector(self) -> FVector:
        counts = [0] * (self.dim + 2)
        for s in self.simplices:
            counts[len(s)] += 1
        return FVector(tuple(counts))

    def euler_char(self) -> int:
        return self.f_vector().euler_char()


def _squarefree_prime_set(k: int) -> frozenset | None:
    """Prime divisors of k as a frozenset, or None if k is not squarefree."""
    primes = []
    m = k
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return None
            primes.append(p)
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return frozenset(primes)


def explicit_complex(n: int) -> SimplicialComplex:
    """Materialise the squarefree-divisor complex at n as explicit sets.

    Bounded because the output has one simplex per squarefree k <= n;
    use :func:`summary` for counting-only questions at large n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > EXPLICIT_COMPLEX_BOUND:
        raise ResourceLimitError(
            f"explicit construction capped at n={EXPLICIT_COMPLEX_BOUND}; "
            "use summaries instead"
        )
    faces = set()
    for k in range(1, n + 1):
        ps = _squarefree_prime_set(k)
        if ps is not None:
            faces.add(ps)
    return SimplicialComplex(frozenset(faces))


def barycentric_subdivide(complex_: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision with canonical tuple vertex labels.

    Vertices of the output are the nonempty faces of the input, labelled
    by the sorted tuple of their members; simplices are the chains of
    properly nested faces.
    """
    faces = [s for s in complex_.simplices if s]
    label = {s: tuple(sorted(s)) for s in faces}
    face_set = set(faces)

    strict_supersets: dict = {s: [] for s in faces}
    for big in faces:
        members = tuple(big)
        for size in range(1, len(members)):
            for sub in itertools.combinations(members, size):
                fs = frozenset(sub)
                if fs in face_set:
                    strict_supersets[fs].append(big)

    out = {frozenset()}
    budget = SUBDIVISION_OUTPUT_CAP

    def grow(chain: tuple, top) -> None:
        nonlocal budget
        out.add(frozenset(chain))
        budget -= 1
        if budget < 0:
            raise ResourceLimitError(
                f"subdivision would exceed {SUBDIVISION_OUTPUT_CAP} simplices"
            )
        for nxt in strict_supersets[top]:
            grow(chain + (label[nxt],), nxt)

    for s in faces:
        grow((label[s],), s)
    return SimplicialComplex(frozenset(out))
