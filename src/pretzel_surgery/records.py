"""Validated records: a subclass of :class:`Record` and of a namedtuple of its
fields raises in ``__new__`` on invalid fields.  ``_make``, ``_replace``,
``copy`` and ``pickle`` all go through the class, so none builds an invalid
record, and records are not ordered.  A record equals a plain tuple of the same
fields, and the C JSON encoder writes it as a list (no emitted field holds one).

Every record type in the package is a tuple record.  ``AbelianInvariants``
and ``GroupPresentation`` are ``Record`` classes too; ``LinearRow``,
``FeasibilityResult``, ``PairwiseInfeasibilityReport``, ``FinitenessVerdict``,
``EnumerationResult``, ``CoxeterQuotient`` and ``SweepReport`` are named
tuples, as is ``NormSystem``, which gives a new empty list where none is given.
"""


class Record(tuple):
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} records are not ordered")

    __le__ = __gt__ = __ge__ = __lt__
