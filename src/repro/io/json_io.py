"""JSON persistence for uncertain tables and score distributions.

Document shapes::

    table:  {"name": ..., "tuples": [{"tid", "probability", "attributes"}],
             "rules": [[tid, ...], ...]}
    pmf:    {"lines": [{"score", "prob", "vector"}], "k": optional}

Vectors serialize as lists of tids; ``None`` vectors are omitted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.pmf import ScorePMF
from repro.exceptions import DataModelError
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import UncertainTable


def table_to_document(table: UncertainTable) -> dict[str, Any]:
    """The JSON-ready dictionary form of a table."""
    return {
        "name": table.name,
        "tuples": [
            {
                "tid": t.tid,
                "probability": t.probability,
                "attributes": dict(t.attributes),
            }
            for t in table
        ],
        "rules": [list(rule) for rule in table.explicit_rules],
    }


def table_from_document(document: dict[str, Any]) -> UncertainTable:
    """Rebuild a table from :func:`table_to_document` output."""
    try:
        tuples = [
            UncertainTuple(
                entry["tid"], entry.get("attributes", {}), entry["probability"]
            )
            for entry in document["tuples"]
        ]
    except (KeyError, TypeError) as exc:
        raise DataModelError(f"malformed table document: {exc}") from exc
    rules = [tuple(rule) for rule in document.get("rules", [])]
    return UncertainTable(
        tuples, rules, name=document.get("name", "uncertain")
    )


def write_table_json(table: UncertainTable, path: str | Path) -> None:
    """Serialize ``table`` to a JSON file."""
    with open(path, "w") as handle:
        json.dump(table_to_document(table), handle, indent=2, default=str)


def read_table_json(path: str | Path) -> UncertainTable:
    """Load a table from a JSON file."""
    with open(path) as handle:
        return table_from_document(json.load(handle))


def pmf_document(pmf: ScorePMF) -> dict[str, Any]:
    """The JSON-ready pmf document of a score distribution.

    Vector tids stay as they are: every encoder of these documents
    passes ``default=str``, so a tid with no JSON form (a numpy int,
    say) is written as its string, as :func:`pmf_to_json` writes it.
    """
    lines = []
    for line in pmf:
        entry: dict[str, Any] = {"score": line.score, "prob": line.prob}
        if line.vector is not None:
            entry["vector"] = list(line.vector)
        lines.append(entry)
    return {"lines": lines}


def pmf_to_json(pmf: ScorePMF) -> str:
    """Serialize a score distribution to a JSON string."""
    return json.dumps(pmf_document(pmf), default=str)


def answer_to_jsonable(answer: Any) -> Any:
    """Any registered semantics' answer as JSON-ready data.

    :class:`ScorePMF` values use the pmf document shape
    (:func:`pmf_document`, so they round-trip through
    :func:`pmf_from_json`); NamedTuple results
    become objects, sequences become arrays, and anything exotic
    falls back to ``str``.  Shared by ``repro answer --json`` and the
    ``/v1/answer`` service endpoint, so both emit identical documents.
    """
    if isinstance(answer, ScorePMF):
        return pmf_document(answer)
    if hasattr(answer, "_asdict"):  # NamedTuple results
        return {
            key: answer_to_jsonable(value)
            for key, value in answer._asdict().items()
        }
    if isinstance(answer, (list, tuple)):
        return [answer_to_jsonable(entry) for entry in answer]
    if isinstance(answer, (str, int, float, bool)) or answer is None:
        return answer
    return str(answer)


def pmf_from_json(text: str) -> ScorePMF:
    """Rebuild a score distribution from :func:`pmf_to_json` output."""
    try:
        document = json.loads(text)
        lines = [
            (
                entry["score"],
                entry["prob"],
                tuple(entry["vector"]) if "vector" in entry else None,
            )
            for entry in document["lines"]
        ]
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise DataModelError(f"malformed PMF document: {exc}") from exc
    return ScorePMF(lines)
