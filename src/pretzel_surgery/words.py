"""Freely reduced words and finite group presentations.

Words are stored run-length encoded as (generator, exponent) pairs, since
everything this package builds is a product of powers; free reduction merges
adjacent runs and cascades cancellations.  Multiplication, inversion and
powers use the operator protocol (``u * v``, ``~u``, ``u ** n``) so word
construction reads like the algebra it encodes.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator

from .records import Record
from .smith import AbelianInvariants, abelian_invariants

Run = tuple[str, int]


class Word:
    """A freely reduced word over named generators."""

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[Run] = ()):
        stack: list[Run] = []
        for g, e in runs:
            if stack and stack[-1][0] == g:
                e += stack.pop()[1]
            if e:
                stack.append((g, e))
        self.runs: tuple[Run, ...] = tuple(stack)

    # -- algebra ------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.runs + other.runs)

    def __invert__(self) -> "Word":
        return Word((g, -e) for g, e in reversed(self.runs))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self.runs * n)

    # -- inspection ---------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return not self.runs

    def letters(self) -> Iterator[tuple[str, int]]:
        """The word as single letters (generator, +-1)."""
        for g, e in self.runs:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (g, step)

    def exponent_sum(self, g: str) -> int:
        return sum(e for h, e in self.runs if h == g)

    def alphabet(self) -> set[str]:
        return {g for g, _ in self.runs}

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __str__(self) -> str:
        if not self.runs:
            return "1"
        return ".".join(g if e == 1 else f"{g}^{e}" for g, e in self.runs)

    def __repr__(self) -> str:
        return f"Word({self})"


def gen(name: str, exponent: int = 1) -> Word:
    return Word(((name, exponent),))


class GroupPresentation(Record, namedtuple("GroupPresentation", "generators relators")):
    """Named generators and freely reduced relators, a validated tuple record."""

    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relators: tuple[Word, ...]) -> GroupPresentation:
        known = set(generators)
        if len(known) != len(generators):
            raise ValueError("duplicate generator names")
        for w in relators:
            extra = w.alphabet() - known
            if extra:
                raise ValueError(f"relator uses unknown generators {sorted(extra)}")
        return tuple.__new__(cls, (generators, relators))

    def exponent_matrix(self) -> list[list[int]]:
        return [[w.exponent_sum(g) for g in self.generators] for w in self.relators]

    def abelianization(self) -> AbelianInvariants:
        return abelian_invariants(len(self.generators), self.exponent_matrix())

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [str(w) for w in self.relators],
        }

    def __str__(self) -> str:
        gens = ",".join(self.generators)
        rels = ", ".join(str(w) for w in self.relators)
        return f"< {gens} | {rels} >"
