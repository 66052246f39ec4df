"""The package's record classes: the frozen value types keep value
equality, hashing and a `Name(field=value, ...)` repr; a relation
certificate stays mutable and unhashable."""

from fractions import Fraction

import pytest

from izeta.algebra import FormalSum, Word
from izeta.interpolate import Contraction
from izeta.numeric import IdentityCheck, NumResult, VerifyReport
from izeta.reduction import RelationCertificate

ONE = NumResult(1.5, 0.25, 10, "x")
CHECK = IdentityCheck(Fraction(1, 2), ONE, ONE, 0.0, 0.5)

# (record, a copy built by keyword from equal fields, another record of
# the class with one field changed, the record's repr)
FROZEN = {
    "NumResult": (
        ONE,
        NumResult(value=1.5, err=0.25, M=10, meta="x"),
        NumResult(1.5, 0.25, 11, "x"),
        "NumResult(value=1.5, err=0.25, M=10, meta='x')",
    ),
    "IdentityCheck": (
        CHECK,
        IdentityCheck(t=Fraction(1, 2), lhs=ONE, rhs=ONE, residual=0.0, tol=0.5),
        IdentityCheck(Fraction(1, 3), ONE, ONE, 0.0, 0.5),
        f"IdentityCheck(t=Fraction(1, 2), lhs={ONE!r}, rhs={ONE!r}, residual=0.0, tol=0.5)",
    ),
    "VerifyReport": (
        VerifyReport((CHECK,)),
        VerifyReport(checks=(CHECK,)),
        VerifyReport(()),
        f"VerifyReport(checks=({CHECK!r},))",
    ),
    "Contraction": (
        Contraction((0, 1, 3), 1),
        Contraction(marks=(0, 1, 3), sigma=1),
        Contraction((0, 2, 3), 1),
        "Contraction(marks=(0, 1, 3), sigma=1)",
    ),
}


@pytest.mark.parametrize(
    "name, field",
    [("NumResult", "value"), ("IdentityCheck", "ok"), ("IdentityCheck", "tol"),
     ("VerifyReport", "checks"), ("Contraction", "sigma")],
)
def test_a_frozen_record_refuses_assignment(name, field):
    record = FROZEN[name][0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == FROZEN[name][3]


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_frozen_record_is_a_value(name):
    record, same, other, shown = FROZEN[name]
    assert type(record).__name__ == type(same).__name__ == name
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert len({record, same, other}) == 2
    assert repr(same) == shown


def test_the_record_methods_read_the_fields():
    assert str(ONE) == "x = 1.5 (err<=2.500e-01, M=10)"
    assert CHECK.ok and VerifyReport((CHECK,)).ok
    assert not IdentityCheck(Fraction(0), ONE, ONE, 1.0, 0.5).ok
    assert str(VerifyReport((CHECK,))) == str(CHECK)


def test_a_relation_certificate_is_mutable_and_compared_field_by_field():
    target = FormalSum.from_word(Word((2,)))
    cert = RelationCertificate(target, [target], [Fraction(1)])
    assert cert.label == "" and cert.success
    same = RelationCertificate(
        target=target, generators=[target], coefficients=[Fraction(1)], label=""
    )
    assert cert == same
    assert repr(cert) == (
        f"RelationCertificate(target={target!r}, generators=[{target!r}], "
        "coefficients=[Fraction(1, 1)], label='')"
    )
    cert.coefficients = None
    assert not cert.success and cert != same
    assert RelationCertificate(target, [target], None, label="a") != RelationCertificate(
        target, [target], None, label="b"
    )
    with pytest.raises(TypeError):
        hash(cert)
