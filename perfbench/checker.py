"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``repro.scoring``, ``repro.algorithms`` or
``repro.mappings``: the score of a match is recomputed from the paper's
definitions, so a fault in the library's scorer cannot hide itself.

* :func:`rescore` — Defs. 5.2–5.5 with the non-injectivity measure ⊓ of
  Eq. 6, over a plain-data view of a match;
* :func:`match_problems` — validity: constants map to themselves, both
  sides of every pair have equal images cell by cell, and the tuple
  mapping respects the injectivity the options ask for;
* :func:`closed_form_optimum` — the optimum over all-constant instances
  under a fully injective mapping, which only pairs identical rows;
* :func:`gold_view` — the match that pairs row *i* of the left instance
  with row *i* of the right one, as a version is built from its base;
* :func:`store_problems` — a reopened store holds every acknowledged
  table with identical content.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.values import LabeledNull

TOLERANCE = 1e-9
"""Largest difference between a reported and a recomputed score.

The two sums add the same terms in different orders, so they may differ
in the last bits; a real scoring fault moves the score by far more.
"""


def _is_null(value) -> bool:
    return isinstance(value, LabeledNull)


@dataclass
class MatchView:
    """A match as plain data: tuples, value mappings, tuple pairs."""

    left: dict  # tuple id -> (relation name, values)
    right: dict
    h_l: dict  # value -> image (identity where absent)
    h_r: dict
    pairs: list  # [(left id, right id)]
    lam: float
    left_injective: bool = False
    right_injective: bool = False


def _tuples(instance) -> dict:
    return {
        t.tuple_id: (relation.schema.name, tuple(t.values))
        for relation in instance.relations()
        for t in relation
    }


def view_of(result) -> MatchView:
    """Read a :class:`ComparisonResult`'s match through its public fields."""
    match, options = result.match, result.options
    return MatchView(
        left=_tuples(match.left),
        right=_tuples(match.right),
        h_l=dict(match.h_l.items()),
        h_r=dict(match.h_r.items()),
        pairs=list(match.m),
        lam=options.lam,
        left_injective=options.left_injective,
        right_injective=options.right_injective,
    )


def _fibers(h: dict, tuples: dict) -> dict:
    """⊓ of each null of one side: how many of its nulls share its image."""
    nulls = {v for _, values in tuples.values() for v in values if _is_null(v)}
    images = Counter(h.get(null, null) for null in nulls)
    return {null: images[h.get(null, null)] for null in nulls}


def rescore(view: MatchView) -> float:
    """``score(M)`` of Def. 5.3, recomputed from Defs. 5.2, 5.5 and Eq. 6."""
    denominator = sum(len(v) for _, v in view.left.values()) + sum(
        len(v) for _, v in view.right.values()
    )
    if denominator == 0:
        return 1.0
    fiber_l = _fibers(view.h_l, view.left)
    fiber_r = _fibers(view.h_r, view.right)
    pair_score = {}
    for left_id, right_id in view.pairs:
        _, left_values = view.left[left_id]
        _, right_values = view.right[right_id]
        total = 0.0
        for a, b in zip(left_values, right_values):
            if view.h_l.get(a, a) != view.h_r.get(b, b):
                continue
            a_null, b_null = _is_null(a), _is_null(b)
            if not a_null and not b_null:
                total += 1.0
                continue
            measure = (fiber_l[a] if a_null else 1) + (fiber_r[b] if b_null else 1)
            total += (2.0 if a_null and b_null else 2.0 * view.lam) / measure
        pair_score[(left_id, right_id)] = total
    image: dict = {}
    preimage: dict = {}
    for left_id, right_id in view.pairs:
        image.setdefault(left_id, []).append(pair_score[(left_id, right_id)])
        preimage.setdefault(right_id, []).append(pair_score[(left_id, right_id)])
    numerator = sum(sum(s) / len(s) for s in image.values()) + sum(
        sum(s) / len(s) for s in preimage.values()
    )
    return numerator / denominator


def match_problems(view: MatchView) -> list[str]:
    """Why the match is not a valid instance match (empty when it is)."""
    problems = []
    for side, h in (("left", view.h_l), ("right", view.h_r)):
        for value in h:
            if not _is_null(value):
                problems.append(f"{side} mapping moves constant {value!r}")
    seen_left: Counter = Counter()
    seen_right: Counter = Counter()
    for left_id, right_id in view.pairs:
        if left_id not in view.left or right_id not in view.right:
            problems.append(f"pair ({left_id}, {right_id}) names no tuple")
            continue
        seen_left[left_id] += 1
        seen_right[right_id] += 1
        left_rel, left_values = view.left[left_id]
        right_rel, right_values = view.right[right_id]
        if left_rel != right_rel:
            problems.append(f"pair ({left_id}, {right_id}) crosses relations")
            continue
        for position, (a, b) in enumerate(zip(left_values, right_values)):
            if view.h_l.get(a, a) != view.h_r.get(b, b):
                problems.append(
                    f"pair ({left_id}, {right_id}) cell {position}: "
                    f"images {view.h_l.get(a, a)!r} != {view.h_r.get(b, b)!r}"
                )
                break
    if view.left_injective and any(n > 1 for n in seen_left.values()):
        problems.append("a left tuple is matched twice under injective options")
    if view.right_injective and any(n > 1 for n in seen_right.values()):
        problems.append("a right tuple is matched twice under injective options")
    return problems


def result_problems(result, tolerance: float = TOLERANCE) -> list[str]:
    """Match validity plus agreement of the reported and recomputed score."""
    view = view_of(result)
    problems = match_problems(view)
    if not problems:
        score = rescore(view)
        if abs(score - result.similarity) > tolerance:
            problems.append(
                f"reported similarity {result.similarity!r} but the match "
                f"scores {score!r}"
            )
    return problems


def gold_view(result) -> MatchView:
    """The row-i-to-row-i match between a clean base and its null version.

    Each null of the version is mapped to the base cell it replaced; the
    base side needs no mapping, as it has no nulls.
    """
    match = result.match
    pairs = []
    h_r = {}
    for relation in match.left.relations():
        right_relation = match.right.relation(relation.schema.name)
        if len(relation) != len(right_relation):
            raise ValueError(f"{relation.schema.name}: row counts differ")
        for t, u in zip(relation, right_relation):
            pairs.append((t.tuple_id, u.tuple_id))
            for a, b in zip(t.values, u.values):
                if _is_null(a):
                    raise ValueError("the gold match needs a base without nulls")
                if _is_null(b):
                    h_r[b] = a
    view = view_of(result)
    view.pairs, view.h_l, view.h_r = pairs, {}, h_r
    return view


def closed_form_optimum(base: dict, version: dict) -> float:
    """Best fully injective score between two all-constant instances.

    ``base`` and ``version`` map relation -> attribute -> column.  Only
    identical rows can be paired, each contributing 2·arity, so the optimum
    is Σ 2·arity·|rows(base) ∩ rows(version)| / Σ arity·(|base|+|version|)
    with the intersection taken as multisets.
    """
    numerator = denominator = 0
    for relation, columns in base.items():
        arity = len(columns)
        left = Counter(zip(*columns.values()))
        right = Counter(zip(*version[relation].values()))
        shared = sum((left & right).values())
        numerator += 2 * arity * shared
        denominator += arity * (sum(left.values()) + sum(right.values()))
    return numerator / denominator if denominator else 1.0


def wire_rows(instance) -> list[list[str]]:
    """A one-relation instance in the serve wire encoding (``_N:`` nulls)."""
    [relation] = list(instance.relations())
    return [
        [f"_N:{v.label}" if _is_null(v) else str(v) for v in t.values]
        for t in relation
    ]


def store_problems(store, acked: dict) -> list[str]:
    """Tables acknowledged as durable that the reopened store lacks or alters.

    ``store`` is an opened :class:`repro.index.IndexStore`; ``acked`` maps
    a table name to the wire rows of its last acknowledged ingest.
    """
    problems = []
    present = set(store.table_names())
    for name, rows in sorted(acked.items()):
        if name not in present:
            problems.append(f"acknowledged table {name!r} is missing")
            continue
        instance, _ = store.load_table(name)
        if wire_rows(instance) != rows:
            problems.append(f"table {name!r} differs from its acknowledged ingest")
    return problems
