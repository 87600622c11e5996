"""Round-trip tests for CSV/JSON persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import QuerySpec
from repro.core.pmf import ScorePMF
from repro.exceptions import DataModelError
from repro.io.csv_io import read_table_csv, write_table_csv
from repro.io.json_io import (
    answer_to_jsonable,
    pmf_document,
    pmf_from_json,
    pmf_to_json,
    read_table_json,
    table_from_document,
    table_to_document,
    write_table_json,
)
from repro.datasets.soldier import soldier_table
from tests.conftest import make_table


class TestCsvRoundTrip:
    def test_soldier_table(self, tmp_path, soldiers):
        path = tmp_path / "soldiers.csv"
        write_table_csv(soldiers, path)
        back = read_table_csv(path)
        assert len(back) == len(soldiers)
        for t in soldiers:
            other = back[t.tid]
            assert other.probability == pytest.approx(t.probability)
            assert other["score"] == t["score"]
        # ME structure preserved (same partitions).
        groups = {
            frozenset(rule) for rule in soldiers.explicit_rules
        }
        assert {
            frozenset(rule) for rule in back.explicit_rules
        } == groups

    def test_typed_values(self, tmp_path):
        t = make_table([("a", 1.5, 0.5)])
        path = tmp_path / "t.csv"
        write_table_csv(t, path)
        back = read_table_csv(path)
        assert isinstance(back["a"]["score"], float)

    def test_missing_prob_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataModelError, match="_prob"):
            read_table_csv(path)

    def test_bad_probability_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("_tid,_prob,_group,x\nt1,abc,,1\n")
        with pytest.raises(DataModelError, match="bad probability"):
            read_table_csv(path)

    def test_rows_without_tid_numbered(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("_prob,x\n0.5,1\n0.6,2\n")
        back = read_table_csv(path)
        assert back[0]["x"] == 1
        assert back[1]["x"] == 2


class TestJsonRoundTrip:
    def test_table_document(self, soldiers):
        doc = table_to_document(soldiers)
        back = table_from_document(doc)
        assert len(back) == len(soldiers)
        assert back["T7"].probability == pytest.approx(0.3)
        assert {frozenset(r) for r in back.explicit_rules} == {
            frozenset(r) for r in soldiers.explicit_rules
        }

    def test_table_file(self, tmp_path, soldiers):
        path = tmp_path / "t.json"
        write_table_json(soldiers, path)
        back = read_table_json(path)
        assert len(back) == 7

    def test_malformed_document(self):
        with pytest.raises(DataModelError):
            table_from_document({"tuples": [{"oops": 1}]})

    def test_pmf_round_trip(self):
        pmf = ScorePMF([(1.5, 0.25, ("a", "b")), (2.0, 0.75, None)])
        back = pmf_from_json(pmf_to_json(pmf))
        assert back.scores == pmf.scores
        assert back.probs == pmf.probs
        assert back.vectors == (("a", "b"), None)

    def test_pmf_malformed(self):
        with pytest.raises(DataModelError):
            pmf_from_json("{}")
        with pytest.raises(DataModelError):
            pmf_from_json("not json")

    def test_real_distribution_survives(self, soldiers):
        from tests.conftest import exact_distribution

        pmf = exact_distribution(soldiers, 2)
        back = pmf_from_json(pmf_to_json(pmf))
        assert back.expectation() == pytest.approx(164.1)


#: One pmf's tids under each naming a table may use.
TID_KINDS = {
    "str": ("a", "b", "c"),
    "int": (3, 1, 2),
    "tuple": (("row", 0), ("row", 1), ("row", 2)),
    "numpy-int": tuple(np.arange(3, dtype=np.int64)),
}


def round_trip(pmf: ScorePMF) -> dict:
    """The pmf document as a JSON text round trip leaves it."""
    return json.loads(pmf_to_json(pmf))


class TestPmfDocument:
    """A pmf document is built once and encoded once: its bytes equal
    those of the document that the JSON text round trip gave."""

    @pytest.mark.parametrize("kind", sorted(TID_KINDS))
    def test_bodies_match_the_round_trip(self, kind) -> None:
        from repro.service.server import _answer_document, _wire_json

        a, b, c = TID_KINDS[kind]
        pmf = ScorePMF([(1.5, 0.25, (a, b)), (2.0, 0.5, (b, c)), (3.0, 0.25, None)])
        assert pmf_to_json(pmf) == json.dumps(pmf_document(pmf), default=str)
        for answer in (pmf_document(pmf), answer_to_jsonable(pmf)):
            assert json.dumps(answer, default=str) == json.dumps(
                round_trip(pmf), default=str
            )
        spec = QuerySpec(table="t", scorer="score", k=2)
        body = _wire_json(_answer_document("distribution", spec, pmf))
        expected = {"table": "t", "k": 2, **round_trip(pmf)}
        assert body == json.dumps(expected, default=str, allow_nan=False)

    def test_non_finite_score_still_has_no_wire_form(self) -> None:
        from repro.service.server import _answer_document, _wire_json

        pmf = ScorePMF([(float("inf"), 1.0, ("a", "b"))])
        spec = QuerySpec(table="t", scorer="score", k=2)
        with pytest.raises(ValueError, match="non-finite"):
            _wire_json(_answer_document("distribution", spec, pmf))
        with pytest.raises(ValueError, match="non-finite"):
            _wire_json({"table": "t", "k": 2, **round_trip(pmf)})
