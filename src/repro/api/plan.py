"""Stage functions of the query pipeline.

The pipeline a :class:`~repro.api.session.Session` plans — and that
the legacy free functions execute one-shot — has three stages:

1. **prefix** — score, rank-order and Theorem-2-truncate the table
   (:func:`prepare_scored_prefix`; the Session scores each table once
   through it and truncates the cached sort per request);
2. **pmf** — run a Section-3 algorithm over the prefix to obtain the
   top-k score distribution (:func:`distribution_from_prefix`);
3. **semantics** — apply the requested answer semantics (dispatched
   through :mod:`repro.api.registry`).

Planning itself lives in the explicit logical→physical layer:
:mod:`repro.api.logical` normalizes a spec,
:mod:`repro.api.planner` chooses the concrete algorithm from the
machine's cost model and lowers it to the executable operators of
:mod:`repro.api.physical`.  This module is the *stage-function
namespace* those operators execute through — one patchable seam for
tests, plugins and tracing.
"""

from __future__ import annotations

from repro.api.logical import LogicalPlan
from repro.api.planner import DEFAULT_PLANNER, exact_cost
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import (  # noqa: F401  (stage-function namespace)
    dp_distribution,
    dp_distribution_sliced,
)
from repro.core.k_combo import k_combo_distribution  # noqa: F401
from repro.core.pmf import ScorePMF
from repro.core.state_expansion import (  # noqa: F401
    state_expansion_distribution,
)
from repro.uncertain.scoring import ScoredTable

__all__ = [
    "exact_cost",
    "prepare_scored_prefix",
    "distribution_from_prefix",
    "mc_distribution",
]


def mc_distribution(prefix: ScoredTable, spec) -> ScorePMF:
    """Stage 2 under ``algorithm="mc"`` (lazy import: :mod:`repro.mc`
    builds on this package's spec)."""
    from repro.mc.engine import mc_distribution as run_mc

    return run_mc(prefix, spec)


def distribution_from_prefix(prefix: ScoredTable, spec) -> ScorePMF:
    """Stage 2: the top-k score distribution of a prepared prefix.

    Lowers the request through the planner (resolving ``"auto"``) and
    runs the resulting stage-2 physical operator, which executes back
    through this module's stage functions, so patched stage functions
    are honored.
    """
    physical = DEFAULT_PLANNER.lower(
        LogicalPlan.from_spec(spec),
        prefix,
        table_rows=len(prefix),
        include_semantics=False,
    )
    assert physical.pmf_op is not None
    return physical.pmf_op.run(prefix, spec)
