import copy
import importlib
import operator
import pickle
from pathlib import Path

import pytest

from pretzel_surgery.boundary import BoundarySlopeSet, Completeness
from pretzel_surgery.classify import CYCLIC
from pretzel_surgery.coxeter import CoxeterSignature
from pretzel_surgery.knots import PretzelKnot
from pretzel_surgery.linprog import EQ
from pretzel_surgery.norms import NormSystem
from pretzel_surgery.slopes import MERIDIAN, Slope, SlopeError
from pretzel_surgery.smith import AbelianInvariants
from pretzel_surgery.sweeps import SweepReport
from pretzel_surgery.words import GroupPresentation, gen

SRC = Path(__file__).resolve().parent.parent / "src" / "pretzel_surgery"

# A valid record, its repr and str, a field change that makes it invalid, and
# the error its constructor raises for that change.
RECORDS = {
    "knot": (PretzelKnot(-2, 3, 7), "PretzelKnot(p=-2, q=3, r=7)", "(-2,3,7)", {"p": 5},
             ValueError),
    "slope": (Slope(1, 2), "Slope(1/2)", "1/2", {"a": 2}, SlopeError),
    "signature": (CoxeterSignature(3, 7, 4), "CoxeterSignature(a=3, b=7, c=4)", "(2,3,7;4)",
                  {"a": 8}, ValueError),
    "boundary": (BoundarySlopeSet((Slope(1, 3), Slope(1, 2)), Completeness.FULL_LIST),
                 "BoundarySlopeSet(slopes=(Slope(1/3), Slope(1/2)), completeness="
                 "<Completeness.FULL_LIST: 'FULL_LIST'>, dropped_integral=())", None,
                 {"slopes": (Slope(1, 2), Slope(1, 3))}, ValueError),
    "abelian": (AbelianInvariants((2, 4), 1), "AbelianInvariants(torsion=(2, 4), free_rank=1)",
                "Z/2 + Z/4 + Z", {"torsion": (2, 3)}, ValueError),
    "presentation": (GroupPresentation(("x", "y"), (gen("x") ** 2, gen("x") * gen("y"))),
                     "GroupPresentation(generators=('x', 'y'), relators=(Word(x^2), Word(x.y)))",
                     "< x,y | x^2, x.y >", {"generators": ("x", "y", "x")}, ValueError),
}


@pytest.mark.parametrize("record, text, string, change, error", RECORDS.values(),
                         ids=RECORDS.keys())
def test_records_keep_the_guarantees_of_the_dataclasses_they_replace(record, text, string,
                                                                     change, error):
    cls = type(record)
    fields = {**record._asdict(), **change}
    forged = tuple.__new__(cls, fields.values())  # what no construction path may return
    paths = {
        "constructor": lambda: cls(**fields),
        "_replace": lambda: record._replace(**change),
        "_make": lambda: cls._make(fields.values()),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
        "pickle": lambda: pickle.loads(pickle.dumps(forged)),
    }
    for name, build in paths.items():
        with pytest.raises(error):
            build()
            pytest.fail(f"{name} built an invalid {cls.__name__}")
    for same in (cls(*record), record._replace(), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert (type(same), same, hash(same)) == (cls, record, hash(record))
    # Not ordered, as the dataclasses were not: a sort raises instead of
    # comparing fields lexicographically.
    with pytest.raises(TypeError):
        sorted([record, cls(*record)])
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((record, record), (record, tuple(record)), (tuple(record), record)):
            with pytest.raises(TypeError):
                compare(left, right)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name, None))
    assert repr(record) == text
    assert str(record) == (text if string is None else string)


def test_a_norm_system_is_built_whole():
    # Its relations go in when it is built, so it holds no list to grow or to
    # share: its constraints are a tuple, and neither field has a default.
    system = NormSystem.of((MERIDIAN,), [(MERIDIAN, EQ)])
    assert type(system.constraints) is tuple and NormSystem._field_defaults == {}
    assert [(gamma, r.coeffs, r.label) for gamma, r in system.constraints] == \
        [(MERIDIAN, (0, -1), "|1/0| EQ S")]
    assert system == NormSystem.of((MERIDIAN,), [(MERIDIAN, EQ)])
    assert not hasattr(system, "add")
    with pytest.raises(TypeError):
        NormSystem((MERIDIAN,))


def test_no_record_has_a_mutable_default():
    # A list or dict default is one object that every record built without
    # it shares; a SweepReport takes its lists from the sweep that built them.
    modules = [importlib.import_module(f"pretzel_surgery.{p.stem}") for p in SRC.glob("*.py")
               if p.stem != "__init__"]
    records = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
               and cls.__module__.startswith("pretzel_surgery.")}
    defaults = {cls.__name__: [*cls._field_defaults.values(), *(cls.__new__.__defaults__ or ())]
                for cls in records}
    assert {"SweepReport", "NormSystem", "LinearRow", "GroupPresentation"} <= defaults.keys()
    assert [name for name, values in defaults.items()
            if any(isinstance(v, (list, dict, set)) for v in values)] == []
    with pytest.raises(TypeError):
        SweepReport(CYCLIC)


def test_knot_indices_are_a_plain_tuple():
    # perfbench's rows_digest formats them with str().
    indices = PretzelKnot(-2, 3, 7).indices
    assert (type(indices), str(indices)) == (tuple, "(-2, 3, 7)")
