"""Per-op correctness: every op is checked, every failure counted.

An HTTP op fails on a transport error, a non-200 status, a
``degraded: true`` answer, or a body that differs from its reference
byte for byte once the trailing ``elapsed_ms`` field is dropped.
References are computed by a fresh in-process ``Session`` over the
identically generated tables, outside the timed window.
"""

from __future__ import annotations

import json
import re
from typing import Any

from common import HTTPResult

#: ``QueryService.handle`` appends ``elapsed_ms`` as the last field.
_ELAPSED = re.compile(rb', "elapsed_ms": -?[0-9][0-9.eE+-]*\}$')


def split_elapsed(body: bytes) -> tuple[bytes, float] | None:
    """``(body without elapsed_ms, elapsed_ms)``, or None if absent."""
    match = _ELAPSED.search(body)
    if match is None:
        return None
    value = float(match.group(0)[len(b', "elapsed_ms": '):-1])
    return body[: match.start()] + b"}", value


def failure(result: HTTPResult, reference: bytes | None = None) -> str | None:
    """Why an HTTP op failed, or None when it is correct.

    ``reference`` is the expected body without ``elapsed_ms``; None
    skips the answer comparison (the op is still checked for status,
    transport and degradation).
    """
    if result.error is not None:
        return f"transport error: {result.error}"
    if result.status != 200:
        return f"HTTP {result.status}"
    split = split_elapsed(result.body)
    if split is None:
        return "response has no elapsed_ms"
    try:
        document = json.loads(split[0])
    except ValueError as exc:
        return f"bad JSON: {exc}"
    if document.get("degraded") is True:
        return f"degraded answer ({document.get('degrade_reason')})"
    if reference is not None and split[0] != reference:
        return "answer differs from its reference"
    return None


def build_spec(endpoint: str, payload: dict[str, Any]) -> Any:
    """The spec the server builds from the same request body."""
    from repro.service.server import build_spec as server_build_spec

    return server_build_spec(payload, endpoint)


def reference_body(session: Any, endpoint: str, payload: dict[str, Any]) -> bytes:
    """The response body the service must send, minus ``elapsed_ms``.

    Mirrors the document ``QueryService`` assembles for the three read
    endpoints; the answer itself comes from ``session``.
    """
    from repro.core.pmf import ScorePMF
    from repro.io.json_io import answer_to_jsonable, pmf_to_json

    spec = build_spec(endpoint, payload)
    op = "distribution" if endpoint == "distribution" else "execute"
    answer = session.execute_many([spec], ops=[op])[0]
    document: dict[str, Any] = {"table": spec.table, "k": spec.k}
    if endpoint == "distribution":
        document.update(json.loads(pmf_to_json(answer)))
    elif endpoint == "typical":
        document["c"] = spec.c
        document["result"] = answer_to_jsonable(answer)
    else:
        document["semantics"] = spec.semantics
        document["answer"] = answer_to_jsonable(answer)
        if isinstance(answer, ScorePMF):
            document["answer_kind"] = "pmf"
    return json.dumps(document, default=str).encode()


class Tally:
    """Ops attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
