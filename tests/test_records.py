import copy
import operator
import pickle

import pytest

from pretzel_surgery.boundary import BoundarySlopeSet, Completeness
from pretzel_surgery.coxeter import CoxeterSignature
from pretzel_surgery.knots import PretzelKnot
from pretzel_surgery.slopes import Slope, SlopeError

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


def test_knot_indices_are_a_plain_tuple():
    # perfbench's rows_digest formats them with str().
    indices = PretzelKnot(-2, 3, 7).indices
    assert (type(indices), str(indices)) == (tuple, "(-2, 3, 7)")
