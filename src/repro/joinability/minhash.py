"""MinHash signatures of column value sets.

The join search is exact (:mod:`repro.joinability.lshindex`: prefix
filter, size filter, exact Jaccard verify), so no study path hashes a
value.  :class:`MinHasher` computes the classic signatures that systems
like LSH Ensemble [Zhu et al. 2016] — one of the paper's cited
comparators — estimate Jaccard with; its one remaining caller is the
signature half of :mod:`repro.joinability.lshindex`
(``compute_table_signatures``), which the wall-clock benchmark's
``lake`` workload times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Callable, Iterable

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1

#: Width of one permutation's slot in the packed kernel: ``a*h + b``
#: stays below ``2**126`` (a < 2**61, h < 2**64, b < 2**61).
_SLOT_BYTES = 16


def _stable_hash(value: str) -> int:
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def _packed(slots: Iterable[int]) -> int:
    """One int holding each of *slots* (each < 2**128) in its own slot."""
    return int.from_bytes(
        b"".join(v.to_bytes(_SLOT_BYTES, "little") for v in slots), "little"
    )


@dataclasses.dataclass(frozen=True)
class MinHasher:
    """A family of *num_perm* random linear hash permutations."""

    num_perm: int
    coefficients: tuple[tuple[int, int], ...]
    # The packed constants of :meth:`vector`, derived from the fields above.
    _multipliers: int = dataclasses.field(init=False, repr=False, compare=False)
    _offsets: int = dataclasses.field(init=False, repr=False, compare=False)
    _ones: int = dataclasses.field(init=False, repr=False, compare=False)
    _low: int = dataclasses.field(init=False, repr=False, compare=False)
    _high: int = dataclasses.field(init=False, repr=False, compare=False)
    _unpack: Callable = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ones = _packed([1] * self.num_perm)
        constants = {
            "_multipliers": _packed(a for a, _ in self.coefficients),
            "_offsets": _packed(b for _, b in self.coefficients),
            "_ones": ones,
            # A slot's low 61 bits, and the 65 bits above them that
            # ``a*h + b < 2**126`` can occupy.
            "_low": ones * _MERSENNE,
            "_high": ones * ((1 << 65) - 1),
            # The low 32 bits of every slot, in permutation order.
            "_unpack": struct.Struct(
                "<" + f"I{_SLOT_BYTES - 4}x" * self.num_perm
            ).unpack,
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)

    @classmethod
    def create(cls, num_perm: int = 128, seed: int = 1) -> "MinHasher":
        """Build a hasher with sha256-derived permutation coefficients.

        Every other seeded component in the codebase derives its
        randomness from a hash stream keyed on the seed, so equal seeds
        mean equal behavior on any Python version.  The hasher is no
        exception: coefficient *i* comes from
        ``sha256("minhash:<seed>:<i>")`` — 16 digest bytes for the
        multiplier (nonzero mod the Mersenne prime), 16 for the offset —
        so equal seeds give equal signatures across interpreter
        upgrades.
        """
        coefficients = []
        for i in range(num_perm):
            digest = hashlib.sha256(
                f"minhash:{seed}:{i}".encode("utf-8")
            ).digest()
            a = int.from_bytes(digest[:16], "big") % (_MERSENNE - 1) + 1
            b = int.from_bytes(digest[16:], "big") % _MERSENNE
            coefficients.append((a, b))
        return cls(num_perm=num_perm, coefficients=tuple(coefficients))

    def vector(self, h: int) -> tuple[int, ...]:
        """``((a*h + b) % (2**61 - 1)) & 0xFFFFFFFF`` for every permutation.

        *h* is a value's 64-bit hash.  One big-int multiply computes
        ``a*h + b`` for all permutations at once, each in its own
        128-bit slot; two Mersenne folds and a carry-based subtract
        reduce every slot mod ``2**61 - 1`` without division.  No slot
        ever carries into or borrows from its neighbour (DESIGN.md §14
        gives the bounds), so the result is exactly the per-permutation
        arithmetic.
        """
        ones, low, high = self._ones, self._low, self._high
        x = self._multipliers * h + self._offsets  # < 2**126 per slot
        x = (x & low) + ((x >> 61) & high)  # < 2**66 per slot
        x = (x & low) + ((x >> 61) & high)  # <= M + 31 per slot
        x -= (((x + ones) >> 61) & ones) * _MERSENNE  # < M per slot
        return self._unpack(x.to_bytes(_SLOT_BYTES * self.num_perm, "little"))

    def fold(self, vectors: list[tuple[int, ...]]) -> tuple[int, ...]:
        """The signature of a value set: per-permutation minimum of its vectors."""
        if not vectors:
            return (_MAX_HASH,) * self.num_perm
        if len(vectors) == 1:  # min() of a single int is an error
            return vectors[0]
        return tuple(map(min, *vectors))

    def signature(self, values: Iterable[str]) -> tuple[int, ...]:
        """MinHash signature of a value set."""
        return self.fold([self.vector(_stable_hash(v)) for v in values])
