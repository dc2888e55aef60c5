"""Subset lattices and the zeta / Möbius linear maps built on them.

Subsets of a ground set of ``n`` labelled elements are encoded as bitmasks
``0 .. 2**n - 1``; bit ``i`` set means element ``i`` belongs to the subset,
so mask 0 is the empty set.  The zeta matrix ``Z`` has entry 1 at ``(E, H)``
iff ``E ⊆ H``; its inverse, the Möbius matrix ``M``, carries the alternating
sign ``(-1)**|H \\ E|`` on the same support.  Everything downstream (the
probability / mean / log-mean-linear parameter chain and the regression
coefficient algebra) is a combination of these two maps applied along rows
or columns of a matrix.

The dense matrices are never built here; they are the reference the
tests check against, in ``tests/oracles.py``.  Every transform, in either
direction and orientation and along any axis of an array, runs through
one in-place butterfly (Yates' algorithm): ``n`` passes of one add or
subtract over the two halves of the axis split at bit ``b``,
``O(n * 2**n)`` per vector and exact to floating-point associativity.
Their layout is planned once per shape, axis and orientation; each call
still copies its input and runs the passes in bit order.

Each lattice builds its text tables once, in O(2**n) string operations:
the brace label of every mask by doubling (the masks with bit i are those
below 2**i with label i added), the label-to-mask lookup from those labels,
and the table order (size, then member indices) from
``itertools.combinations``, with no per-mask member list or sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

MAX_GROUND_SIZE = 20          # 2**20 subsets: hard cap to bound memory


@dataclass(frozen=True)
class SubsetLattice:
    """The lattice of all subsets of an ordered, labelled ground set."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if not 1 <= n <= MAX_GROUND_SIZE:
            raise ValueError(
                f"ground set must have between 1 and {MAX_GROUND_SIZE} elements, got {n}"
            )
        if len(set(self.labels)) != n:
            raise ValueError(f"duplicate labels in {self.labels}")
        for lab in self.labels:
            if not lab or any(ch in lab for ch in ",;{}# \t"):
                raise ValueError(f"label {lab!r} is empty or contains a reserved character")

    @property
    def ground_size(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of subsets, 2**ground_size."""
        return 1 << len(self.labels)

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask < self.size:
            raise ValueError(f"mask {mask} out of range for ground set of size {self.ground_size}")
        return mask

    def mask_of(self, members: Iterable[str]) -> int:
        """Bitmask of the subset holding the given labels."""
        mask = 0
        for lab in members:
            try:
                mask |= 1 << self.labels.index(lab)
            except ValueError:
                raise ValueError(f"unknown label {lab!r}; expected one of {self.labels}") from None
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    @cached_property
    def mask_labels(self) -> tuple[str, ...]:
        """Brace label of every subset, indexed by mask; built once per lattice.

        Built by doubling: the masks with bit i are those below 2**i, each
        with label i added last, one string operation per label.
        """
        inner = [""]
        for lab in self.labels:
            inner += [lab, *(f"{s},{lab}" for s in inner[1:])]
        return tuple(f"{{{s}}}" for s in inner)

    def format_mask(self, mask: int) -> str:
        """Brace notation: ``{b,c}`` for subsets, ``{}`` for the empty set."""
        return self.mask_labels[self.check_mask(mask)]

    @cached_property
    def _mask_by_label(self) -> dict[str, int]:
        return dict(zip(self.mask_labels, range(self.size)))

    def parse_subset(self, text: str) -> int:
        """Inverse of :meth:`format_mask`; accepts optional surrounding braces.

        The label ``format_mask`` prints is looked up directly; any other
        spelling (member order, inner spaces, no braces, ``{ }`` for the
        empty set) is parsed.
        """
        text = text.strip()
        mask = self._mask_by_label.get(text)
        if mask is not None:
            return mask
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1].strip()
        if not text:
            return 0
        return self.mask_of(part.strip() for part in text.split(","))

    def masks_by_cardinality(self, include_empty: bool = False) -> list[int]:
        """All masks sorted by (cardinality, member-index sequence).

        This matches the usual table layout: singletons first, then pairs
        in lexicographic label order, and so on.
        """
        return list(self._by_cardinality[0 if include_empty else 1:])

    @cached_property
    def _by_cardinality(self) -> tuple[int, ...]:
        # combinations of the bits, size by size, come in member-index order
        bits = [1 << i for i in range(self.ground_size)]
        return tuple(sum(c) for k in range(self.ground_size + 1)
                     for c in combinations(bits, k))


@lru_cache(maxsize=256)
def _passes(shape: tuple[int, ...], axis: int, supersets: bool) -> tuple[tuple, ...]:
    """The butterfly's passes for one shape, axis and orientation: (view, dst, src).

    Pass b views ``axis`` as (2**(n-1-b), 2, 2**b): the two middle slots are
    the masks without and with bit b.  For subset sums the upper half takes
    ``op(upper, lower)``; for superset sums the lower half takes
    ``op(lower, upper)``.
    """
    size = shape[axis]
    n = size.bit_length() - 1
    if size <= 0 or 1 << n != size:   # tested first: size 0 gives n = -1, a negative shift
        raise ValueError(f"axis length {size} is not a power of two")
    axis %= len(shape)
    lead = (slice(None),) * (axis + 1)
    dst, src = lead + (int(not supersets),), lead + (int(supersets),)
    return tuple((shape[:axis] + (1 << (n - 1 - b), 2, 1 << b) + shape[axis + 1:], dst, src)
                 for b in range(n))


def _butterfly(x: np.ndarray, axis: int, supersets: bool, op: np.ufunc) -> np.ndarray:
    """Yates' in-place butterfly shared by both transforms, on a float copy of x.

    Splitting one axis never copies, whatever the memory layout, so each
    pass's update lands in y."""
    y = np.array(x, dtype=float)
    for view, dst, src in _passes(y.shape, axis, supersets):
        v = y.reshape(view)
        upd = v[dst]
        op(upd, v[src], out=upd)
    return y


def zeta_transform(x: np.ndarray, axis: int = -1, supersets: bool = False) -> np.ndarray:
    """Subset-sum transform along ``axis``: out[S] = Σ_{T ⊆ S} x[T].

    With ``supersets=True`` the sum runs over T ⊇ S instead.  Equivalent to
    multiplying by Z along that axis but computed in O(n·2**n).
    """
    return _butterfly(x, axis, supersets, np.add)


def mobius_transform(x: np.ndarray, axis: int = -1, supersets: bool = False) -> np.ndarray:
    """Inverse of :func:`zeta_transform` with the same orientation."""
    return _butterfly(x, axis, supersets, np.subtract)
