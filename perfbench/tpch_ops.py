"""The two TPC-H workloads: one base instance against a series of versions.

``tpch-nulls``  default signature algorithm, ``MatchOptions.general()``;
                each version is the base with about 5% of its non-key cells
                replaced by fresh labeled nulls, at positions drawn per
                version.
``tpch-dirty``  ``Algorithm.ASSIGNMENT``, ``MatchOptions.data_repair()``;
                each version is the base with planted primary-key
                duplicates and dangling foreign keys, and no nulls.

One op ingests the next version's column arrays with
``Instance.from_columns`` and compares it with the base through one
``Comparator``: the base side is a cache hit, the version a miss.
"""

from __future__ import annotations

import pickle
import random
import time

from common import (
    Samples,
    Setup,
    clocked,
    mean,
    median,
    settle,
    tail,
)
from checker import (
    TOLERANCE,
    closed_form_optimum,
    gold_view,
    rescore,
    result_problems,
)

from repro import Algorithm, Comparator, Instance, MatchOptions
from repro.algorithms.assignment import assignment_compare
from repro.algorithms.compatibility import compatible_tuples_of_instances
from repro.algorithms.signature import SignatureIndex, signature_compare
from repro.core.schema import Schema
from repro.datagen.tpch import (
    TPCH_FKS,
    TPCH_KEYS,
    TPCH_SCHEMAS,
    TPCH_TABLES,
    generate_tpch,
    tpch_cardinality,
)
from repro.parallel.cache import SignatureCache, instance_fingerprint
from repro.scoring import score_match

CONFIG = {
    "tpch-nulls": {
        "sf": 0.00025,
        "algorithm": None,
        "options": MatchOptions.general,
        "null_rate": 0.05,
    },
    "tpch-dirty": {
        "sf": 0.0005,
        "algorithm": Algorithm.ASSIGNMENT,
        "options": MatchOptions.data_repair,
        "violation_rate": 0.02,
    },
}
VERSIONS = 16
"""Versions made in set-up; a run that outlasts them starts over, and
each is still a cache miss, since the cache holds one version at a time."""

SETUP_REPEATS = 3
"""Set-ups timed before the first op; one more follows every op."""

# The comparator's cache holds the working set — the base and the version
# being compared — so the heap, and with it the collector's work, does
# not grow with the number of ops a run happens to complete.
CACHE_ENTRIES = 2


def null_masks(base: dict, rate: float, rng: random.Random) -> dict:
    """Rows to null out per relation and non-key attribute."""
    masks = {}
    for relation in TPCH_TABLES:
        keys = set(TPCH_KEYS[relation])
        per_attribute = {}
        for attribute, column in base[relation].items():
            if attribute in keys:
                continue
            rows = [row for row in range(len(column)) if rng.random() < rate]
            if rows:
                per_attribute[attribute] = rows
        masks[relation] = per_attribute
    return masks


def plant_violations(base: dict, rate: float, rng: random.Random) -> dict:
    """A copy of ``base`` with PK duplicates and dangling FKs, alternating.

    A duplicate copies a row and changes one non-key cell of the copy; a
    dangling FK points one row's foreign key past the parent's key range.
    """
    version = {}
    for relation in TPCH_TABLES:
        columns = {a: list(c) for a, c in base[relation].items()}
        version[relation] = columns
        attributes = list(columns)
        rows = len(columns[attributes[0]])
        keys = set(TPCH_KEYS[relation])
        non_key = [a for a in attributes if a not in keys]
        fks = [attribute for attribute, _, _ in TPCH_FKS.get(relation, ())]
        for index in range(round(rate * rows)):
            if fks and index % 2 == 1:
                attribute = rng.choice(fks)
                columns[attribute][rng.randrange(rows)] = (
                    10**9 + rng.randrange(10**6)
                )
            else:
                source = rng.randrange(rows)
                for attribute in attributes:
                    columns[attribute].append(columns[attribute][source])
                columns[rng.choice(non_key)][-1] = f"dup {rng.randrange(10**6)}"
    return version


def build(workload: str, seed: int):
    config = CONFIG[workload]
    base_columns = generate_tpch(config["sf"], seed=seed).to_columns()
    # Each order draws 1-7 lines, so lineitem's length, and with it the
    # quadratic part of a comparison, would change from seed to seed.
    # Cutting it to 3.5 lines per order (several deviations below the
    # mean of 4) gives every seed the same amount of work.
    cap = tpch_cardinality("orders", config["sf"]) * 7 // 2
    base_columns["lineitem"] = {
        a: column[:cap] for a, column in base_columns["lineitem"].items()
    }
    schema = Schema([TPCH_SCHEMAS[t] for t in TPCH_TABLES])
    base = Instance.from_columns(schema, base_columns, name="base")
    versions = []
    for k in range(VERSIONS):
        rng = random.Random(f"perfbench:{workload}:{seed}:{k}")
        if "null_rate" in config:
            masks = null_masks(base_columns, config["null_rate"], rng)
            versions.append((base_columns, masks))
        else:
            dirty = plant_violations(base_columns, config["violation_rate"], rng)
            versions.append((dirty, None))
    comparator = Comparator(
        config["algorithm"],
        options=config["options"](),
        cache=SignatureCache(max_entries=CACHE_ENTRIES),
    )
    comparator.cache.get(base, "left")
    return base, base_columns, versions, comparator


class Decomposition:
    """Per-layer timings of one op, from calls made beside the timed op.

    Each layer's public function is called on the same inputs the op
    used; counts come from the results those calls return.
    """

    def __init__(self, base: Instance, options: MatchOptions, assignment: bool):
        self.options = options
        self.assignment = assignment
        self.left = SignatureCache(max_entries=1).get(base, "left")
        self.samples = Samples()

    def run(self, version: Instance, result) -> None:
        options, left = self.options, self.left
        _, fingerprint_ms = clocked(instance_fingerprint, version)
        right, fill_ms = clocked(SignatureCache(max_entries=1).get, version, "right")
        _, build_ms = clocked(SignatureIndex.build, right.instance)
        floor, compare_ms = clocked(
            signature_compare,
            left.instance,
            right.instance,
            options=options,
            left_index=left.index,
            right_index=right.index,
        )
        pools = completion_pools(left.instance, right.instance, floor, options)
        compatible, join_ms = clocked(compatible_tuples_of_instances, *pools)
        pairs = sum(len(ids) for ids in compatible.values())
        _, score_ms = clocked(score_match, floor.match, lam=options.lam)
        completion = result.stats.get("completion_pairs", 0)
        self.samples.add({
            "cache.fingerprint_ms": fingerprint_ms,
            "cache.fill_ms": fill_ms,
            "signature.index_build_ms": build_ms,
            "signature.compare_ms": compare_ms,
            "signature.pass_ms": compare_ms - join_ms - score_ms,
            "signature.signature_pairs": result.stats.get("signature_pairs", 0),
            "signature.completion_pairs": completion,
            "compat.join_ms": join_ms,
            "compat.pairs": pairs,
            "compat.commit_ratio": completion / pairs if pairs else 0.0,
            "scoring.score_ms": score_ms,
        })
        if self.assignment:
            solved, assignment_ms = clocked(
                assignment_compare,
                left.instance,
                right.instance,
                options=options,
                seed_result=floor,
            )
            stats = solved.stats
            self.samples.add({
                "assignment.compare_ms": assignment_ms,
                "assignment.blocks_solved": stats.get("assignment_blocks_solved", 0),
                "assignment.blocks_skipped": stats.get("assignment_blocks_skipped", 0),
            })


def completion_pools(left: Instance, right: Instance, floor, options):
    """The tuples the completion step joins after the signature pass.

    An injective side keeps only tuples the signature pass left unmatched;
    a non-injective side keeps every tuple.
    """
    pairs = floor.stats.get("pairs_after_signature")
    if pairs is None:
        # The pair list is due to become opt-in; the final match differs
        # from it only by the completion pairs, which are few here.
        pairs = list(floor.match.m)

    def pool(instance: Instance, injective: bool, matched: set) -> Instance:
        if not injective:
            return instance
        kept = Instance(instance.schema, name=f"{instance.name}-pool")
        for t in instance.tuples():
            if t.tuple_id not in matched:
                kept.add(t)
        return kept

    return (
        pool(left, options.left_injective, {l for l, _ in pairs}),
        pool(right, options.right_injective, {r for _, r in pairs}),
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run ops for ``seconds``, check every result; a summary dict."""
    config = CONFIG[workload]
    setup = Setup()
    base, base_columns, versions, comparator = setup.run(
        lambda: build(workload, seed), repeats=SETUP_REPEATS
    )
    options = comparator.options
    decomposition = (
        Decomposition(base, options, config["algorithm"] is Algorithm.ASSIGNMENT)
        if trace
        else None
    )
    compare_s, ingest_ms, match_ms, result_kb, gold_gaps = [], [], [], [], []
    hits = misses = 0
    problems: list[str] = []
    ops = 0
    trace_s = 0.0
    deadline = time.perf_counter() + seconds
    while ops == 0 or time.perf_counter() < deadline:
        columns, masks = versions[ops % VERSIONS]
        before = comparator.cache.stats()
        settle()
        started = time.perf_counter()
        version = Instance.from_columns(
            base.schema, columns, nulls=masks, name=f"version-{ops}"
        )
        ingested = time.perf_counter()
        result = comparator.compare(base, version)
        finished = time.perf_counter()
        after = comparator.cache.stats()

        compare_s.append(finished - started)
        ingest_ms.append((ingested - started) * 1000.0)
        match_ms.append((finished - ingested) * 1000.0)
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        result_kb.append(len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) / 1024.0)

        found = result_problems(result)
        if not result.completed:
            found.append(f"outcome {result.outcome.value}")
        if masks is None:
            optimum = closed_form_optimum(base_columns, columns)
            if abs(optimum - result.similarity) > TOLERANCE:
                found.append(
                    f"similarity {result.similarity!r} is not the optimum {optimum!r}"
                )
        else:
            gold_gaps.append(result.similarity - rescore(gold_view(result)))
        problems.extend(f"op {ops}: {p}" for p in found)
        if decomposition is not None:
            traced = time.perf_counter()
            decomposition.run(version, result)
            trace_s += time.perf_counter() - traced
        ops += 1
        del version, result  # free them before the next op's collection
        # One more timed set-up after each op, outside the op's timing, so
        # setup_s samples the whole run and not only its first seconds.
        setup.run(lambda: build(workload, seed), repeats=1)

    lines = [
        f"{workload}: sf {config['sf']}, {ops} ops, "
        f"similarity checked against an independent re-score on every op",
        f"compare_s {tail(compare_s)}",
        f"  of which from_columns (ms) {tail(ingest_ms)}",
        f"  of which compare (ms) {tail(match_ms)}",
    ]
    if gold_gaps:
        lines.append(
            "gold match (row i <-> row i): reported - gold similarity "
            f"median {median(gold_gaps):.3g}, min {min(gold_gaps):.3g}"
        )
    else:
        lines.append("similarity equals the closed-form optimum on every op")
    per_layer = {}
    if decomposition is not None:
        per_layer = decomposition.samples.medians()
        per_layer.update(
            {
                "core.from_columns_ms": median(ingest_ms),
                "cache.hits": hits / ops,
                "cache.misses": misses / ops,
            }
        )
    return {
        "attempted": ops,
        "failed": 0,
        "problems": problems,
        "lines": lines,
        "e2e": {
            "setup_s": setup.median_s,
            # A batch workload: time per op is the run's time over its op
            # count (the inverse of its throughput), so the mean.
            "compare_s": mean(compare_s),
            "result_kb": mean(result_kb),
            # ingest_ms and search_ms are declared for serve-index; every
            # run must print every metric, so here they are the op's own
            # two parts: its from_columns call and its compare call.
            "ingest_ms": mean(ingest_ms),
            "search_ms": mean(match_ms),
        },
        "per_layer": per_layer,
        "trace_s": trace_s,
    }
