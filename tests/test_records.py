"""The library's records: immutable, and sent to pool workers by pickle."""

import inspect
import pickle

import pytest

import minorlab as ml

CONFIG = ml.ExperimentConfig("bounds", trials=2)

RECORDS = [
    ml.complete_graph(3),
    ml.HallViolator(frozenset({1, 2})),
    ml.MinorModel((frozenset({0}), frozenset({1, 2}))),
    ml.DenseModelParams(t=3, l=2),
    ml.Decomposition(frozenset({0, 1}), frozenset({2}), ((2, 0),), 1),
    ml.BipartiteSpec(2, 3, 0.5, seed=7),
    ml.eval_bounds(4, a=10, b=10),
    CONFIG,
    ml.ExperimentReport(CONFIG, ("trial",), ({"trial": 0},), {"trials": 2}),
]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_fields_are_read_only_and_survive_pickling(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record
    assert repr(copy) == repr(record)


@pytest.mark.parametrize("record", [ml.DenseModelParams, ml.BipartiteSpec, ml.ExperimentConfig])
def test_checking_records_show_their_fields_in_their_signature(record):
    params = inspect.signature(record).parameters
    assert tuple(params) == record._fields
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == record._field_defaults
