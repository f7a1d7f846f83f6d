"""The result records are named tuples: fields, defaults, immutability and
pickling (scan results cross a pipe between processes)."""

import json
import pickle
from fractions import Fraction

import pytest

from tcore import (
    CertifiedEstimate,
    KappaConstants,
    PairCertificate,
    PartitionSeries,
    PolynomialTable,
    SaddleResult,
    VerificationReport,
)

# record, its fields in order, its defaults, a keyword sample, the sample's repr
RECORDS = [
    (
        PartitionSeries,
        ("t", "values"),
        {},
        dict(t=None, values=(1, 1, 2)),
        "PartitionSeries(t=None, values=(1, 1, 2))",
    ),
    (
        PolynomialTable,
        ("k", "fn_low", "fn_coeffs"),
        {},
        dict(k=0, fn_low=-1, fn_coeffs=(Fraction(1),)),
        "PolynomialTable(k=0, fn_low=-1, fn_coeffs=(Fraction(1, 1),))",
    ),
    (
        SaddleResult,
        (
            "t", "n", "shifted_index", "y", "bracket_lo", "bracket_hi", "residual",
            "curvature", "drift", "iterations",
        ),
        {},
        dict(
            t=6, n=1, shifted_index=2.5, y=0.25, bracket_lo=0.125, bracket_hi=0.5,
            residual=0.0, curvature=1.5, drift=0.0, iterations=3,
        ),
        "SaddleResult(t=6, n=1, shifted_index=2.5, y=0.25, bracket_lo=0.125, "
        "bracket_hi=0.5, residual=0.0, curvature=1.5, drift=0.0, iterations=3)",
    ),
    (
        KappaConstants,
        ("kappa", "v", "A", "B"),
        {},
        dict(kappa=24.0, v=0.5, A=0.125, B=2.0),
        "KappaConstants(kappa=24.0, v=0.5, A=0.125, B=2.0)",
    ),
    (
        CertifiedEstimate,
        ("log_value", "rel_error_bound", "regime", "hypotheses_ok", "diagnostics"),
        {"diagnostics": None},
        dict(log_value=1.5, rel_error_bound=None, regime="main", hypotheses_ok=False,
             diagnostics={"y": 0.5}),
        "CertifiedEstimate(log_value=1.5, rel_error_bound=None, regime='main', "
        "hypotheses_ok=False, diagnostics={'y': 0.5})",
    ),
    (
        VerificationReport,
        (
            "max_n", "max_t", "violations", "equalities", "pairs_checked", "workers",
            "elapsed_s", "blocks", "closed_form_pairs",
        ),
        {
            "pairs_checked": 0, "workers": 1, "elapsed_s": 0.0, "blocks": (),
            "closed_form_pairs": 0,
        },
        dict(max_n=12, max_t=None, violations=[], equalities=[(5, 10)], pairs_checked=3,
             workers=2, elapsed_s=0.5, blocks=[[4, 10, 0.25]], closed_form_pairs=1),
        "VerificationReport(max_n=12, max_t=None, violations=[], equalities=[(5, 10)], "
        "pairs_checked=3, workers=2, elapsed_s=0.5, blocks=[[4, 10, 0.25]], "
        "closed_form_pairs=1)",
    ),
    (
        PairCertificate,
        ("t", "n", "method", "ok", "equality", "margin", "detail"),
        {"detail": None},
        dict(t=5, n=10, method="exact", ok=True, equality=True, margin=0.0,
             detail={"c_t": "12", "c_t1": "12"}),
        "PairCertificate(t=5, n=10, method='exact', ok=True, equality=True, margin=0.0, "
        "detail={'c_t': '12', 'c_t1': '12'})",
    ),
]
IDS = [record[0].__name__ for record in RECORDS]


def _required(cls, sample):
    return {k: v for k, v in sample.items() if k not in cls._field_defaults}


@pytest.mark.parametrize("cls,fields,defaults,sample,text", RECORDS, ids=IDS)
def test_fields_defaults_and_annotations(cls, fields, defaults, sample, text):
    assert cls._fields == fields
    assert tuple(cls.__annotations__) == fields
    # the old defaults, except for the containers: an empty tuple for the
    # lists, None for the dicts (no default may be a shared mutable object)
    assert cls._field_defaults == defaults
    built = cls(**_required(cls, sample))
    for name, value in defaults.items():
        assert getattr(built, name) == value


@pytest.mark.parametrize("cls,fields,defaults,sample,text", RECORDS, ids=IDS)
def test_keyword_construction_repr_and_tuple_behaviour(cls, fields, defaults, sample, text):
    rec = cls(**sample)
    assert tuple(getattr(rec, name) for name in fields) == tuple(sample.values())
    assert repr(rec) == text
    # a named tuple: iterable, and equal to the plain tuple of its fields
    assert rec == tuple(rec) == cls(*sample.values())
    assert rec._replace() == rec


@pytest.mark.parametrize("cls,fields,defaults,sample,text", RECORDS, ids=IDS)
def test_assignment_raises(cls, fields, defaults, sample, text):
    rec = cls(**sample)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict


@pytest.mark.parametrize("cls,fields,defaults,sample,text", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields, defaults, sample, text):
    for rec in (cls(**sample), cls(**_required(cls, sample))):
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls
        assert back == rec


def _immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    return isinstance(value, (int, float, str, bytes, Fraction, type(None)))


@pytest.mark.parametrize("cls,fields,defaults,sample,text", RECORDS, ids=IDS)
def test_default_built_records_share_nothing_mutable(cls, fields, defaults, sample, text):
    a = cls(**_required(cls, sample))
    b = cls(**_required(cls, sample))
    for name, x, y in zip(fields, a, b):
        if name in defaults:
            assert _immutable(x), name
        else:  # passed in: the two records hold what the caller gave them
            assert x is y


def test_default_containers_reject_writes():
    est = CertifiedEstimate(log_value=0.0, rel_error_bound=None, regime="main",
                            hypotheses_ok=False)
    cert = PairCertificate(t=5, n=10, method="exact", ok=True, equality=True, margin=0.0)
    report = VerificationReport(max_n=3, max_t=None, violations=[], equalities=[])
    with pytest.raises(TypeError):
        est.diagnostics["y"] = 1.0
    with pytest.raises(TypeError):
        cert.detail["c_t"] = "12"
    with pytest.raises(AttributeError):
        report.blocks.append([4, 5, 0.0])


def test_properties_and_to_dict():
    assert PartitionSeries(t=None, values=(1, 1, 2)).limit == 2
    report = VerificationReport(max_n=3, max_t=None, violations=[], equalities=[])
    assert report.ok
    assert not report._replace(violations=[(4, 9)]).ok
    cert = PairCertificate(t=5, n=10, method="exact", ok=True, equality=True, margin=0.0)
    # to_dict gives fresh, JSON-ready containers, also from the read-only defaults
    for out in (report.to_dict(), cert.to_dict()):
        json.dumps(out)
    assert report.to_dict()["blocks"] == []
    assert type(cert.to_dict()["detail"]) is dict
