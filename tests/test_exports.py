import os
import subprocess
import sys
from pathlib import Path

import pytest

import doublepell


def test_every_exported_name_resolves_once():
    names = doublepell.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(doublepell, name)]
    assert missing == []


def test_deleted_names_stay_gone():
    for name in ("cross_check_sunit", "pell_compose", "exceptional_eps_candidates"):
        assert name not in doublepell.__all__
        assert not hasattr(doublepell, name)
    assert not hasattr(doublepell.MultiQuad, "conjugate_under")
    for name in ("missing_primes_for", "is_admissible_for"):
        assert not hasattr(doublepell.SPrimeSet, name)
    assert not hasattr(doublepell.classify, "exceptional_eps_candidates")
    for name in ("_s_unit_exponents", "_square_scan"):
        assert not hasattr(doublepell.search, name)


def test_factoring_limit_is_a_domain_error():
    assert "FactoringLimit" in doublepell.__all__
    assert issubclass(doublepell.FactoringLimit, doublepell.DomainError)


# One value of each of the package's twelve records, built by the library.
_CURVE = doublepell.CurveParams(2, 3, 1, 1)
_POINT = doublepell.QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
RECORDS = [
    doublepell.cf_sqrt(7),
    doublepell.PellProblem(2, 1),
    doublepell.pell_classes(doublepell.PellProblem(2, 7)),
    _CURVE,
    doublepell.SPrimeSet.of(2, 3),
    _POINT,
    doublepell.sym_invariants(_CURVE, _POINT),
    doublepell.verify_identities(_CURVE, _POINT),
    doublepell.points_at_infinity(_CURVE),
    doublepell.classify(_CURVE, _POINT),
    doublepell.SearchConfig(_CURVE),
    doublepell.sunit_solutions(doublepell.SPrimeSet.of(2), 1)[0],
]

# Each validating record, one bad field value and the error it raises.
BAD_FIELDS = [
    (_POINT, {"eps": 0}, doublepell.DomainError),
    (doublepell.PellProblem(2, 1), {"N": 0}, doublepell.DomainError),
    (_CURVE, {"c": 2, "d": 3}, doublepell.DegenerateCurve),
    (doublepell.SPrimeSet.of(2, 3), {"primes": frozenset({2, 4})}, doublepell.DomainError),
    (doublepell.SearchConfig(_CURVE), {"coeff_bound": 0}, doublepell.DomainError),
    (
        doublepell.points_at_infinity(_CURVE),
        {"points": doublepell.points_at_infinity(_CURVE).points[:3]},
        doublepell.PanicInvariant,
    ),
]


def _record_id(record) -> str:
    return type(record).__name__


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_record_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


def test_curve_params_refuses_new_attributes():
    # CurveParams alone has an instance __dict__, where roots is cached.
    curve = doublepell.CurveParams(2, 3, 1, 1)
    for name in ("roots", "e"):
        with pytest.raises(AttributeError):
            setattr(curve, name, None)
    assert curve.roots == _CURVE.roots


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_equal_fields_give_equal_records_and_hashes(record):
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_record_repr_names_each_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize(
    "record, bad, error", BAD_FIELDS, ids=[_record_id(case[0]) for case in BAD_FIELDS]
)
def test_every_construction_path_validates(record, bad, error):
    values = [bad.get(name, getattr(record, name)) for name in record._fields]
    raised = []
    for build in (
        lambda: type(record)(*values),
        lambda: type(record)._make(values),
        lambda: record._replace(**bad),
    ):
        with pytest.raises(error) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == raised[2]


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # -S keeps site's .pth imports out of the modules counted.
    probe = "import sys, doublepell.cli; print('dataclasses' in sys.modules)"
    src = str(Path(doublepell.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
