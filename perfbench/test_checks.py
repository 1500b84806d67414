"""Tests of the benchmark's own checks, on tiny inputs.

    PYTHONPATH=src python -m pytest perfbench -q

Each check is shown to accept a correct output and to reject a broken
one: a perturbed similarity, a pair with clashing constants, a store
that lost an acknowledged ingest.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from checker import (  # noqa: E402
    closed_form_optimum,
    gold_view,
    match_problems,
    rescore,
    result_problems,
    store_problems,
    view_of,
    wire_rows,
)
from repro import Algorithm, Comparator, Instance, MatchOptions  # noqa: E402
from repro import SimilarityIndex  # noqa: E402
from repro.index.store import IndexStore  # noqa: E402
from repro.serve.service import decode_table  # noqa: E402

ROWS = [("1", "x", "p"), ("2", "y", "q"), ("3", "x", "q"), ("4", "z", "p")]


def columns(rows):
    return {a: [row[i] for row in rows] for i, a in enumerate(("A", "B", "C"))}


def compared(left, right, algorithm=None, options=None):
    comparator = Comparator(algorithm, options=options or MatchOptions.general())
    return comparator.compare(left, right)


@pytest.fixture
def nulls_result():
    base = Instance.from_columns("R", columns(ROWS), name="base")
    version = Instance.from_columns(
        "R", columns(ROWS), nulls={"B": [1, 3], "C": [0]}, name="version"
    )
    return compared(base, version)


@pytest.mark.parametrize(
    "algorithm, options",
    [
        (None, MatchOptions.general()),
        (None, MatchOptions.versioning()),
        (Algorithm.ASSIGNMENT, MatchOptions.data_repair()),
    ],
)
def test_rescore_agrees_with_the_library(algorithm, options):
    base = Instance.from_columns("R", columns(ROWS), name="base")
    version = Instance.from_columns(
        "R", columns(ROWS[1:] + [("5", "x", "p")]), nulls={"C": [0, 2]}
    )
    result = compared(base, version, algorithm, options)
    assert result_problems(result) == []


def test_perturbed_similarity_is_rejected(nulls_result):
    assert result_problems(nulls_result) == []
    perturbed = dataclasses.replace(
        nulls_result, similarity=nulls_result.similarity - 1e-6
    )
    [problem] = result_problems(perturbed)
    assert "reported similarity" in problem


def test_pair_with_clashing_constants_is_rejected(nulls_result):
    view = view_of(nulls_result)
    assert match_problems(view) == []
    # l1 holds ("1", "x", "p") and r2 holds ("2", ...): the keys clash.
    view.pairs.append(("l1", "r2"))
    assert any("images" in p for p in match_problems(view))


def test_mapping_a_constant_is_rejected(nulls_result):
    view = view_of(nulls_result)
    view.h_l["x"] = "y"
    assert any("moves constant" in p for p in match_problems(view))


def test_injectivity_is_checked():
    base = Instance.from_rows("R", ("A",), [("1",), ("1",)], name="base")
    version = Instance.from_rows("R", ("A",), [("1",)], name="version")
    result = compared(base, version, options=MatchOptions.versioning())
    view = view_of(result)
    [(left_id, right_id)] = view.pairs
    other = next(t for t in view.left if t != left_id)
    view.pairs.append((other, right_id))
    assert any("matched twice" in p for p in match_problems(view))


def test_gold_match_scores_by_hand():
    # Row 1 keeps "1", its B null maps to "x": 1 + 2λ/(1+1) = 1.5 with
    # λ = 0.5; row 2 is untouched: 2.  (1.5 + 2) per side over 4 + 4 cells.
    base = Instance.from_rows("R", ("A", "B"), [("1", "x"), ("2", "y")])
    version = Instance.from_columns(
        "R", {"A": ["1", "2"], "B": ["x", "y"]}, nulls={"B": [0]}
    )
    result = compared(base, version)
    assert rescore(gold_view(result)) == pytest.approx(7 / 8)


def test_gold_match_counts_non_injectivity():
    # Both version nulls map to "x", so ⊓ = 1 + 2 and each B cell scores
    # 2λ/3 = 1/3: (4/3 + 4/3) per side over 8 cells.
    base = Instance.from_rows("R", ("A", "B"), [("1", "x"), ("2", "x")])
    version = Instance.from_columns(
        "R", {"A": ["1", "2"], "B": ["x", "x"]}, nulls={"B": [0, 1]}
    )
    result = compared(base, version)
    assert rescore(gold_view(result)) == pytest.approx(2 / 3)


def test_closed_form_optimum_is_what_assignment_finds():
    base_rows = ROWS + [ROWS[0]]
    version_rows = [ROWS[0], ROWS[1], ("3", "x", "dup"), ROWS[3], ROWS[3]]
    base = Instance.from_columns("R", columns(base_rows))
    version = Instance.from_columns("R", columns(version_rows))
    result = compared(
        base, version, Algorithm.ASSIGNMENT, MatchOptions.data_repair()
    )
    optimum = closed_form_optimum(
        {"R": columns(base_rows)}, {"R": columns(version_rows)}
    )
    # Shared rows as multisets: ROWS[0], ROWS[1], ROWS[3] once each.
    assert optimum == pytest.approx(2 * 3 * 3 / (3 * (5 + 5)))
    assert result.similarity == pytest.approx(optimum, abs=1e-12)


def wire(rows):
    return {"relation": "R", "columns": ["A", "B"], "rows": rows}


def test_store_check_rejects_a_missing_acknowledged_ingest(tmp_path):
    first = [["1", "x"], ["2", "_N:n1"]]
    index = SimilarityIndex()
    index.add("a", decode_table(wire(first), "table"))
    store = index.save(tmp_path / "store")
    index.add("b", decode_table(wire([["3", "z"]]), "table"))
    store.sync()
    store.close()

    reopened = IndexStore(tmp_path / "store")
    reopened.open()
    try:
        acked = {"a": first, "b": [["3", "z"]]}
        assert store_problems(reopened, acked) == []
        lost = dict(acked, c=[["4", "w"]])
        assert store_problems(reopened, lost) == [
            "acknowledged table 'c' is missing"
        ]
        changed = dict(acked, a=[["1", "x"], ["2", "y"]])
        assert store_problems(reopened, changed) == [
            "table 'a' differs from its acknowledged ingest"
        ]
    finally:
        reopened.close()


def test_wire_rows_round_trip_nulls():
    rows = [["1", "_N:n7"], ["2", "y"]]
    assert wire_rows(decode_table(wire(rows), "table")) == rows


def test_versions_depend_only_on_the_seed():
    import tpch_ops

    base = {
        name: columns
        for name, columns in tpch_ops.generate_tpch(0.0002, seed=3)
        .to_columns()
        .items()
    }
    first = tpch_ops.plant_violations(base, 0.05, random.Random(9))
    again = tpch_ops.plant_violations(base, 0.05, random.Random(9))
    assert first == again != base
    masks = tpch_ops.null_masks(base, 0.05, random.Random(9))
    assert masks == tpch_ops.null_masks(base, 0.05, random.Random(9))
