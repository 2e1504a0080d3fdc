"""Parameter spaces: an object universe plus positive parameters paired with their negations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InvalidArgument, InvalidSpace, UnknownObject, UnknownParameter


def _distinct(kind: str, ids: tuple[str, ...]) -> None:
    seen = set()
    for x in ids:
        if not isinstance(x, str) or not x:
            raise InvalidSpace(f"{kind} identifier must be a non-empty string, got {x!r}")
        if x in seen:
            raise InvalidSpace(f"duplicate {kind} identifier {x!r}")
        seen.add(x)
    try:  # once per list: a lone surrogate is a str that no UTF-8 file or stream can hold
        "".join(ids).encode()
    except UnicodeEncodeError as exc:
        raise InvalidSpace(f"{kind} identifiers must be Unicode text ({exc.reason})") from None


def _lookup(mapping, key, unknown: type):
    """``mapping[key]``; ``unknown(key)`` if the key is absent or unhashable."""
    try:
        return mapping[key]
    except (KeyError, TypeError):  # TypeError: an unhashable key
        raise unknown(key) from None


@dataclass(frozen=True)
class ParameterSpace:
    """Universe of objects plus two aligned parameter lists.

    ``positive_params[k]`` and ``negative_params[k]`` form one
    property/negation pair; the positional pairing *is* the negation
    bijection.  Identifiers are opaque strings.  All orderings are
    significant: they fix the canonical layout of every derived value
    (membership masks, tables, serialized documents).
    """

    universe: tuple[str, ...]
    positive_params: tuple[str, ...]
    negative_params: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("universe", "positive_params", "negative_params"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):  # a str: one id per char
                raise InvalidSpace(f"{name} must be a collection of ids, got {value!r}")
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.universe:
            raise InvalidSpace("universe must contain at least one object")
        if not self.positive_params:
            raise InvalidSpace("at least one parameter pair is required")
        if len(self.positive_params) != len(self.negative_params):
            raise InvalidSpace("positive and negative parameter lists must pair up one-to-one")
        _distinct("object", self.universe)
        _distinct("positive parameter", self.positive_params)
        _distinct("negative parameter", self.negative_params)
        overlap = set(self.positive_params) & set(self.negative_params)
        if overlap:
            raise InvalidSpace(
                f"parameters cannot be both positive and negative: {sorted(overlap)}"
            )

    @classmethod
    def from_pairs(
        cls, universe: Iterable[str], pairs: Iterable[tuple[str, str]]
    ) -> "ParameterSpace":
        """Build from an explicit (positive, negative) pair list."""
        if not isinstance(pairs, Iterable):
            raise InvalidSpace(f"pairs must be a collection of pairs, got {pairs!r}")
        pair_list = list(pairs)
        for pair in pair_list:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise InvalidSpace(f"a parameter pair must be (positive, negative), got {pair!r}")
        return cls(
            universe,
            tuple(p for p, _ in pair_list),
            tuple(q for _, q in pair_list),
        )

    @property
    def m(self) -> int:
        return len(self.universe)

    @property
    def n(self) -> int:
        return len(self.positive_params)

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.positive_params, self.negative_params))

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.universe)) - 1

    @cached_property
    def cells_mask(self) -> int:
        """All m·n cells of a packed int: bit ``k*m + i`` is object ``i`` at parameter ``k``."""
        return (1 << self.m * self.n) - 1

    @cached_property
    def _squared(self) -> "ParameterSpace":
        """The and/or-product space, ``products.product_space``: built once, on first use."""
        pos = []
        neg = []
        for e, ne in self.pairs:
            for ep, nep in self.pairs:
                pos.append(f"({e},{ep})")
                neg.append(f"({ne},{nep})")
        return ParameterSpace(self.universe, tuple(pos), tuple(neg))

    @cached_property
    def object_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.universe)}

    @cached_property
    def param_index(self) -> dict[str, int]:
        return {e: k for k, e in enumerate(self.positive_params)}

    def negation(self, param: str) -> str:
        """The negative parameter paired with ``param``."""
        return self.negative_params[_lookup(self.param_index, param, UnknownParameter)]

    def mask_of(self, members: Iterable[str]) -> int:
        """Bit mask selecting ``members``; bit ``i`` stands for ``universe[i]``."""
        # a str would be read one id per character; hasattr costs a fifth of an Iterable check,
        # and this runs twice per parameter of every parsed document
        if isinstance(members, str) or not hasattr(members, "__iter__"):
            raise InvalidArgument(f"members must be a collection of object ids, got {members!r}")
        index = self.object_index
        mask = 0
        for u in members:
            try:  # not ``_lookup``: a call per member of every parsed document costs too much
                mask |= 1 << index[u]
            except (KeyError, TypeError):
                raise UnknownObject(u) from None
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Objects selected by ``mask``, in universe order."""
        return tuple(u for i, u in enumerate(self.universe) if mask >> i & 1)
