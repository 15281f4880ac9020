"""The record classes: fields set once, equality and hashing by class and
fields.  ``TestFamilyInstance`` and ``TestGenerators`` in ``test_models.py``
check that each record validates when it is built directly."""

from fractions import Fraction

import pytest

from painstrata.exactnum import ComplexRational as CR
from painstrata.exactnum import gaussian
from painstrata.models import (Family, FamilyInstance, GroupWord, P3Generator, Related, Unknown,
                               system_rhs)
from painstrata.numverify import BLOWUP, Event, IntegrationSpec, Trajectory
from painstrata.strata import Classification, classify, classify_xc


def records() -> list:
    inst = FamilyInstance(Family.PIII, (CR(1), CR(1)))
    word = GroupWord(Family.PIII, (P3Generator.S1,))
    system = system_rhs(FamilyInstance(Family.XC, (CR(2),)))
    return [CR(1, 2), inst, word, Related(word), Unknown(), system, classify(inst),
            classify_xc(CR(2)), Event(BLOWUP, 0.5), IntegrationSpec(system, 0.0, 0.3, (1, 0.5))]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    fields = type(record).__slots__ or ("word",)
    for name in fields:
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name, None) is before


def test_records_compare_by_class_and_fields():
    for a, b in zip(records(), records()):
        assert a == b and a is not b
        if not isinstance(a, Classification):   # whose degree is a dict
            assert hash(a) == hash(b)
    word = GroupWord(Family.PIII)
    assert Related(word) != word and Related(word) != Related(GroupWord(Family.PIV))
    assert Unknown() == Unknown() and Unknown() != Related(word)


def test_complex_rational_equals_only_complex_rationals():
    one = CR(1)
    for same in (gaussian(2, 2, 0, 1), CR(Fraction(3, 3)), CR(1, 0)):
        assert same == one and hash(same) == hash(one)
    assert len({one, gaussian(5, 5, 0, 7)}) == 1
    for other in (1, Fraction(1), 1.0, (1, 1, 0, 1)):
        assert one != other and other != one
    assert CR(1, 1) != one and CR(Fraction(1, 2)) == gaussian(1, 2, 0, 1)


def test_trajectory_stays_mutable():
    a, b = Trajectory(("y",), [(0.0, (1.0,))]), Trajectory(("y",), [(0.0, (1.0,))])
    assert (a.events, a.error_estimate, a.drifts) == ([], 0.0, None)
    a.events.append(Event(BLOWUP, 0.0))
    a.error_estimate, a.drifts = 1e-9, [0.0]
    assert not a.completed and b.completed and b.drifts is None
