"""Golden ME answers: the DP's lines, vectors included, pinned.

The expected lines below (shared-prefix sweep, sliced sweep and
per-ending ablation) were recorded from an implementation that carried
tids, not rank positions, through the DP, so they do not depend on the
position-to-tid mapping they check.  The backend parity tests compare
two engines that share every mapping step, so a mapping bug both
engines made would pass them; these values would not.

The table mixes ME groups of two to four members with score ties
(equal scores rank by probability, then table order), and is built
under three tid namings: strings, tuples, and integers that run
opposite to the rank order, so that neither a tid's value nor its sort
order can stand in for its rank position.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import dp_distribution_per_ending
from repro.core import kernels
from repro.core.dp import dp_distribution, dp_distribution_sliced
from repro.uncertain.model import UncertainTuple
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.table import UncertainTable

SCORES = [50, 48, 48, 45, 45, 45, 40, 38, 38, 35, 33, 33,
          30, 28, 28, 25, 22, 20, 20, 18, 15, 12, 10, 10]
PROBS = [0.30, 0.55, 0.40, 0.25, 0.35, 0.25, 0.70, 0.35,
         0.20, 0.50, 0.45, 0.20, 0.65, 0.30, 0.30, 0.80,
         0.15, 0.15, 0.55, 0.60, 0.25, 0.90, 0.50, 0.30]
#: ME rules as row indices (table order).
RULES = [(0, 4, 13), (1, 2), (5, 8, 17, 23), (9, 11), (14, 20)]
ROWS = len(SCORES)

#: Row index -> tid, per naming.  ``int`` tids run opposite to the
#: rank order: row i is tid ``ROWS - 1 - i``.
NAMINGS = {
    "int": lambda row: ROWS - 1 - row,
    "str": lambda row: f"t{row}",
    "tuple": lambda row: ("row", row),
}


def scored(naming: str) -> ScoredTable:
    tid = NAMINGS[naming]
    tuples = [
        UncertainTuple(tid(row), {"score": float(score)}, prob)
        for row, (score, prob) in enumerate(zip(SCORES, PROBS))
    ]
    rules = [tuple(tid(row) for row in rule) for rule in RULES]
    return ScoredTable.from_table(
        UncertainTable(tuples, rules), attribute_scorer("score")
    )


def answers(table: ScoredTable) -> dict:
    sliced_k2, sliced_k3 = dp_distribution_sliced(
        table, [(2, 14), (3, 24)], max_lines=6
    )
    pmfs = {
        "distribution_k4": dp_distribution(table, 4, max_lines=6),
        "distribution_k2": dp_distribution(table, 2, max_lines=200),
        "sliced_k2_d14": sliced_k2,
        "sliced_k3_d24": sliced_k3,
        "per_ending_k3": dp_distribution_per_ending(table, 3, max_lines=6),
    }
    return {name: [tuple(line) for line in pmf] for name, pmf in pmfs.items()}


#: Recorded lines ``(score, probability, vector)`` under the ``int``
#: naming.
EXPECTED = {
    'distribution_k4': [
        (76.89146401085723, 2.5533959614453107e-05, (10, 8, 2, 1)),
        (97.56741433618842, 0.00030576758781788066, (11, 10, 8, 4)),
        (118.37673059814824, 0.003889068150510027, (17, 11, 10, 8)),
        (139.09775549877304, 0.04964774707251026, (22, 14, 11, 10)),
        (158.41552720336875, 0.33097081298976844, (22, 19, 17, 13)),
        (175.1543711337262, 0.61510389015625, (22, 19, 18, 17)),
    ],
    'distribution_k2': [
        (20.0, 4.361270976562497e-09, (1, 0)),
        (22.0, 9.158669050781246e-08, (2, 1)),
        (25.0, 5.653499414062497e-09, (3, 1)),
        (27.0, 5.815027968749999e-08, (3, 2)),
        (28.0, 1.5264448417968736e-08, (4, 1)),
        (30.0, 1.7162408935546863e-07, (4, 2)),
        (32.0, 1.6897787156249994e-07, (5, 2)),
        (33.0, 9.691713281249995e-08, (4, 3)),
        (34.0, 1.8471265312499987e-08, (7, 2)),
        (35.0, 1.4390399460937495e-07, (5, 3)),
        (37.0, 4.3008402937499996e-07, (8, 2)),
        (38.0, 5.012769480468747e-07, (5, 4)),
        (40.0, 1.2303313287890614e-06, (10, 2)),
        (42.0, 3.5845041375e-07, (11, 2)),
        (43.0, 1.488250680820312e-06, (8, 4)),
        (45.0, 4.011119258554688e-06, (8, 5)),
        (46.0, 1.744508390624998e-06, (10, 4)),
        (47.0, 1.1499566203124999e-06, (8, 7)),
        (48.0, 6.584850845507804e-06, (10, 5)),
        (50.0, 3.5344646145703098e-06, (10, 7)),
        (51.0, 4.0294032187499973e-07, (13, 4)),
        (52.0, 6.971445731249998e-07, (11, 7)),
        (53.0, 4.370721074999996e-05, (10, 8)),
        (55.0, 1.4218308381621095e-05, (11, 8)),
        (56.0, 2.1185500514062475e-05, (10, 9)),
        (57.0, 1.2394634987109365e-06, (19, 2)),
        (58.0, 0.0001471340767862108, (11, 10)),
        (60.0, 1.579221881015625e-05, (14, 8)),
        (61.0, 0.00010863587109374991, (13, 10)),
        (62.0, 1.1970680596874988e-06, (23, 2)),
        (63.0, 0.0003553614123855466, (13, 11)),
        (65.0, 0.00027434395074023423, (14, 11)),
        (66.0, 0.00019784518287187483, (13, 12)),
        (67.0, 1.8992801953124976e-06, (19, 7)),
        (68.0, 0.0006429191628234369, (14, 13)),
        (70.0, 0.0004131252203203122, (17, 11)),
        (71.0, 0.00042539765624999965, (16, 13)),
        (72.0, 1.4632586718749979e-06, (23, 7)),
        (73.0, 0.0019408350773437483, (17, 13)),
        (75.0, 0.0019512039421874978, (17, 14)),
        (76.0, 0.0016657207382812507, (22, 10)),
        (78.0, 0.007338549749999997, (22, 11)),
        (80.0, 0.0013877632031249986, (19, 14)),
        (81.0, 0.008959732031250006, (22, 13)),
        (83.0, 0.016182089062500005, (22, 14)),
        (85.0, 0.012087656249999981, (19, 17)),
        (86.0, 0.029363906250000016, (22, 16)),
        (88.0, 0.13224656250000003, (22, 17)),
        (90.0, 0.014656249999999978, (23, 17)),
        (93.0, 0.47796875000000005, (22, 19)),
        (95.0, 0.00656249999999999, (23, 20)),
        (98.0, 0.28500000000000003, (23, 22)),
    ],
    'sliced_k2_d14': [
        (62.574789711081316, 0.0008247860156249993, (14, 11)),
        (69.01195710989347, 0.0015827076562499984, (14, 13)),
        (74.62640361863814, 0.005301847851562496, (17, 14)),
        (81.26659424313564, 0.03384723035156251, (22, 14)),
        (87.65130472148576, 0.18835437500000002, (22, 17)),
        (94.86883248730966, 0.76953125, (22, 19)),
    ],
    'sliced_k3_d24': [
        (48.40197443301479, 2.300496291386717e-06, (10, 2, 1)),
        (67.18207101221826, 4.180022491948239e-05, (10, 8, 4)),
        (84.49047243201935, 0.0006201937291166889, (11, 10, 8)),
        (102.96478666150227, 0.011630573800331952, (22, 11, 10)),
        (119.58812835703827, 0.1502026415264344, (22, 17, 14)),
        (135.22904345546704, 0.8374991429687502, (23, 22, 17)),
    ],
    'per_ending_k3': [
        (49.26126442368309, 1.079852733984374e-06, (11, 2, 0)),
        (65.2465262956042, 3.6639285992314425e-05, (10, 8, 4)),
        (80.77968102026286, 0.0003247932332736032, (11, 10, 8)),
        (102.15435043347958, 0.010404681439859644, (22, 11, 10)),
        (119.17200465957963, 0.14441755276210938, (22, 17, 13)),
        (135.13946276661395, 0.8448119061718751, (22, 19, 20)),
    ],
}


def expected_lines(naming: str, name: str) -> list:
    """The recorded lines with each ``int`` tid renamed to ``naming``."""
    rename = NAMINGS[naming]
    return [
        (score, prob, tuple(rename(ROWS - 1 - tid) for tid in vector))
        for score, prob, vector in EXPECTED[name]
    ]


@pytest.mark.parametrize("backend", ["python", "native"])
@pytest.mark.parametrize("naming", sorted(NAMINGS))
def test_me_answers_keep_their_bytes(backend, naming, monkeypatch) -> None:
    if backend == "native" and not kernels.native_available():
        pytest.skip("no C compiler / native kernel on this machine")
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    got = answers(scored(naming))
    assert sorted(got) == sorted(EXPECTED)
    for name in EXPECTED:
        assert got[name] == expected_lines(naming, name), name
