"""The record classes of the library: plain __slots__ classes with the
signatures, defaults, equality and immutability that their callers read."""
import pytest

from nctoric.azumaya import IdemSystem, LineProbeResult, MorphismData, QuasiHomChart
from nctoric.deltasystem import ChartSystem
from nctoric.freeword import identity_word
from nctoric.ncalgebra import AlgElem, BoundedIdeal, MemberCertificate
from nctoric.reports import Finding, Report
from nctoric.sheaves import GluingData, TwistedSectionData
from nctoric.toricfan import Fan

ONE = AlgElem.from_word(identity_word(1))
FAN_FIELDS = (2, ((1, 0), (0, 1)), ((0, 1),), ((), (0,), (1,), (0, 1)))

# class -> the values of its fields, in signature order
RECORDS = {
    Finding: ("Def 2.2.12", "cone [0]", False, "detail", True),
    Report: ([],),
    Fan: FAN_FIELDS + ({}, {(0, 1): ((1, 0), (0, 1))}),
    GluingData: ("system", {}, {}),
    TwistedSectionData: ("gluing", {}),
    ChartSystem: ("fan", {}, {}, ({},)),
    BoundedIdeal: ((ONE,), 3),
    MemberCertificate: ((),),
    IdemSystem: (True, {}, False, []),
    QuasiHomChart: ((0,), [[1]], {}),
    MorphismData: (2, "system", {}),
    LineProbeResult: ((1, 0), (), (1,)),
}
FROZEN = [Fan, BoundedIdeal, MemberCertificate, LineProbeResult]


def fields(record):
    return [getattr(record, name) for name in record.__slots__]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction(cls):
    # each class lists its slots in signature order, under the keyword names
    values = RECORDS[cls]
    assert len(cls.__slots__) == len(values)
    for record in (cls(*values), cls(**dict(zip(cls.__slots__, values)))):
        assert fields(record) == list(values)


def test_defaults():
    f = Finding("c", "l", True)
    assert (f.detail, f.bound_relative) == ("", False)
    s = ChartSystem("fan", {})
    assert (s.lifts, s.stages) == (None, ())
    idem = IdemSystem(False)
    assert (idem.reduced, idem.complete, idem.witnesses) == (None, None, [])


def test_fresh_mutable_defaults():
    a, b = Report(), Report()
    a.add(Finding("c", "l", True))
    assert a.findings is not b.findings and b.findings == []
    x, y = IdemSystem(False), IdemSystem(False)
    x.witnesses.append(Finding("c", "l", False))
    assert x.witnesses is not y.witnesses and y.witnesses == []


def test_fan_equality_ignores_derived_fields():
    a = Fan(*FAN_FIELDS, {}, {})
    b = Fan(*FAN_FIELDS, {((0, 1), (0, 1)): (1, 1)}, {(0, 1): ((1, 0), (0, 1))})
    assert a == b
    assert a != Fan(2, ((1, 0), (1, 1)), *FAN_FIELDS[2:], {}, {})
    assert a != Fan(3, *FAN_FIELDS[1:], {}, {})


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_refuse_assignment(cls):
    record = cls(*RECORDS[cls])
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert fields(record) == list(RECORDS[cls])


def test_bounded_ideal_refuses_zero_generator():
    with pytest.raises(ValueError, match="nonzero"):
        BoundedIdeal((ONE, AlgElem.zero(1)), 2)
