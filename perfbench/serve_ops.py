"""The ``serve-index`` workload: one closed-loop client against ``repro serve``.

Set-up writes an index store of versions of one TPC-H table (orders, a
few hundred rows each) and starts ``python -m repro serve --store ...
--jobs 1``.  The client then sends whole rounds of requests, each round
``PAIRS_PER_ROUND`` times an ``/ingest`` (``"replace": true``, a small
edit of a stored table) followed by a ``/search`` (a fresh version as the
query), and one ``/compare`` of a fixed, seed-independent pair under
``COMPARE_TIMEOUT_MS``.

That ``/compare`` fails every time today: the anytime ladder's refine
rung does not stop at the deadline, so the answer comes far too late.  It
stays in the mix and is counted in ``failed`` until budgets are honest;
its late answer is not timed into any metric.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from checker import store_problems, wire_rows
from common import (
    Samples,
    Setup,
    clocked,
    directory_bytes,
    mean,
    median,
    tail,
)

from repro import SimilarityIndex
from repro.datagen.tpch import TPCH_KEYS, generate_tpch
from repro.index.store import IndexStore
from repro.runtime.anytime import compare_anytime
from repro.serve.service import decode_table

TABLE = "orders"
SF = 0.0002  # 300 orders rows per stored table
TABLES = 8
NULL_RATE = 0.05
EDIT_CELLS = 8
PAIRS_PER_ROUND = 5
TOP_K = 3
REQUEST_TIMEOUT_MS = 20_000
COMPARE_SF = 0.0001  # 150 rows per side
COMPARE_TIMEOUT_MS = 200
COMPARE_SLACK_MS = 150
"""A /compare answered later than its timeout plus this slack has failed."""
# The wall kill must not fire: a killed worker drains the whole server
# (see README.md), so the grace is far past the ~1 s the overrun takes.
KILL_GRACE_MS = 5_000
SERVER_FLAGS = [
    "--jobs", "1",
    "--max-queue", "4",
    "--timeout-ms", str(REQUEST_TIMEOUT_MS),
    "--max-timeout-ms", str(REQUEST_TIMEOUT_MS),
    "--kill-grace-ms", str(KILL_GRACE_MS),
]
SETUP_REPEATS = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Tables:
    """The seeded inputs: base rows, stored versions, edits and queries."""

    def __init__(self, seed: int) -> None:
        base = generate_tpch(SF, seed=seed, tables=(TABLE,))
        self.seed = seed
        self.columns = list(base.relation(TABLE).schema.attributes)
        keys = set(TPCH_KEYS[TABLE])
        self.editable = [i for i, a in enumerate(self.columns) if a not in keys]
        self.base = wire_rows(base)
        self.names = [f"{TABLE}-{j:02d}" for j in range(TABLES)]

    def wire(self, rows: list[list[str]], name: str) -> dict:
        return {"relation": TABLE, "columns": self.columns, "rows": rows, "name": name}

    def version(self, tag: str) -> list[list[str]]:
        """The base with about NULL_RATE of its non-key cells nulled."""
        rng = random.Random(f"perfbench:serve:{self.seed}:{tag}")
        rows = [list(row) for row in self.base]
        fresh = 0
        for row in rows:
            for i in self.editable:
                if rng.random() < NULL_RATE:
                    fresh += 1
                    row[i] = f"_N:{tag}n{fresh}"
        return rows

    def edit(self, rows: list[list[str]], step: int) -> list[list[str]]:
        """A small edit: EDIT_CELLS cells toggled between null and base value."""
        rng = random.Random(f"perfbench:serve:{self.seed}:edit{step}")
        rows = [list(row) for row in rows]
        for cell in range(EDIT_CELLS):
            r, i = rng.randrange(len(rows)), rng.choice(self.editable)
            if rows[r][i].startswith("_N:"):
                rows[r][i] = self.base[r][i]
            else:
                rows[r][i] = f"_N:e{step}x{cell}"
        return rows


def compare_pair() -> tuple[dict, dict]:
    """The fixed /compare tables; they do not depend on the seed."""
    clean = generate_tpch(COMPARE_SF, seed=0, tables=(TABLE,))
    nulls = generate_tpch(COMPARE_SF, seed=0, tables=(TABLE,), null_rate=0.05)
    columns = list(clean.relation(TABLE).schema.attributes)
    return tuple(
        {"relation": TABLE, "columns": columns, "rows": wire_rows(instance),
         "name": name}
        for name, instance in (("left", clean), ("right", nulls))
    )


def build_store(tables: Tables, path: Path) -> dict:
    """Write the initial store; returns each table's stored rows."""
    index = SimilarityIndex()
    stored = {}
    for name in tables.names:
        rows = tables.version(name)
        index.add(name, decode_table(tables.wire(rows, name), "table"))
        stored[name] = rows
    index.save(path).close()
    return stored


class Server:
    """A ``repro serve`` subprocess; always stopped and waited for."""

    def __init__(self, store: Path, source: Path, log_dir: Path) -> None:
        self.log = log_dir / "server.out"
        env = dict(os.environ, PYTHONPATH=str(source))
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", str(store),
                 "--port", "0", *SERVER_FLAGS],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=env,
            )
        self.host, self.port = self._address()
        self._wait_ready()

    def _address(self) -> tuple[str, int]:
        pattern = re.compile(r"serving on http://([0-9.]+):(\d+)")
        limit = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < limit:
            found = pattern.search(self.log.read_text(errors="replace"))
            if found:
                return found.group(1), int(found.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.log.read_text()}")

    def _wait_ready(self) -> None:
        client = Client(self.host, self.port)
        limit = time.monotonic() + START_TIMEOUT_S
        try:
            while time.monotonic() < limit:
                try:
                    if client.request("GET", "/readyz")[0] == 200:
                        return
                except OSError:
                    pass
                time.sleep(0.01)
        finally:
            client.close()
        self.stop()
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set so far (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(kib.group(1)) / 1024.0

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def request(self, method: str, path: str, body: bytes | None = None):
        """(status, decoded JSON reply, response bytes, seconds)."""
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        seconds = time.perf_counter() - started
        return response.status, json.loads(raw), len(raw), seconds

    def close(self) -> None:
        self.conn.close()


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode()


class InProcessCopy:
    """Per-layer timings from a copy of the index bound to its own store."""

    def __init__(self, tables: Tables, path: Path) -> None:
        build_store(tables, path)
        self.index = SimilarityIndex.load(path)
        self.samples = Samples()

    def ingest(self, body: dict, reply: dict, client_s: float) -> None:
        instance, decode_ms = clocked(decode_table, body["table"], "table")
        report, update_ms = clocked(self.index.update, body["name"], instance)
        _, sync_ms = clocked(self.index.store.sync)
        self.samples.add({
            "serve.decode_ms": decode_ms,
            "index.update_ms": update_ms,
            "store.sync_ms": sync_ms,
            "delta.tuples_changed": report.tuples_inserted
            + report.tuples_deleted
            + report.tuples_updated,
            "delta.minhash_slots_patched": report.minhash_slots_patched,
            "delta.minhash_slots_rebuilt": report.minhash_slots_rebuilt,
            "lsh.buckets_moved": report.lsh_buckets_entered + report.lsh_buckets_left,
        })
        self._envelope("ingest", reply, client_s)

    def search(self, body: dict, reply: dict, client_s: float) -> None:
        query, decode_ms = clocked(decode_table, body["query"], "query")
        _, search_ms = clocked(self.index.search, query, top_k=body["top_k"])
        report = self.index.last_report
        self.samples.add({
            "serve.decode_ms": decode_ms,
            "index.search_ms": search_ms,
            "refine.lsh_candidates": report.lsh_candidates,
            "refine.refined": report.refined,
            "refine.pruned": report.pruned,
        })
        self._envelope("search", reply, client_s)

    def _envelope(self, endpoint: str, reply: dict, client_s: float) -> None:
        server_ms = reply["elapsed_ms"]
        self.samples.add({
            f"serve.{endpoint}_server_ms": server_ms,
            f"serve.{endpoint}_overhead_ms": client_s * 1000.0 - server_ms,
        })

    def close(self) -> None:
        self.index.store.close()


class Session:
    """The client side of one run: sends, checks and records requests."""

    def __init__(self, tables: Tables, client: Client, current: dict, copy):
        self.tables, self.client = tables, client
        self.current, self.copy = current, copy
        self.samples: dict[str, list[float]] = {
            "ingest_ms": [], "search_ms": [], "pair_s": [], "search_kb": [],
            "late_compare_s": [],
        }
        self.acked: dict[str, list[list[str]]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.trace_s = 0.0

    def _trace(self, call, *args) -> None:
        started = time.perf_counter()
        call(*args)
        self.trace_s += time.perf_counter() - started

    def ingest(self, step: int, measured: bool = True) -> float:
        """Sends one /ingest; returns its client latency in seconds."""
        name = self.tables.names[step % TABLES]
        rows = self.tables.edit(self.current[name], step)
        body = {"name": name, "table": self.tables.wire(rows, name), "replace": True}
        status, reply, _, took = self.client.request("POST", "/ingest", _encode(body))
        self.attempted += measured
        if status != 200 or not reply.get("ok"):
            self.failed += measured
            self.problems.append(f"/ingest {name} answered {status}: {reply}")
            return took
        if reply["result"].get("durable") is not True:
            self.problems.append(f"/ingest {name} was not acked durable")
        self.current[name] = self.acked[name] = rows
        if not measured:
            if self.copy is not None:
                self.copy.index.update(name, decode_table(body["table"], "table"))
            return took
        self.samples["ingest_ms"].append(took * 1000.0)
        if self.copy is not None:
            self._trace(self.copy.ingest, body, reply, took)
        return took

    def search(self, step: int) -> float:
        """Sends one /search; returns its client latency in seconds."""
        rows = self.tables.version(f"q{step}")
        body = {"query": self.tables.wire(rows, "query"), "top_k": TOP_K}
        status, reply, size, took = self.client.request(
            "POST", "/search", _encode(body)
        )
        self.attempted += 1
        if status != 200 or not reply.get("ok") or not reply["result"]["hits"]:
            self.failed += 1
            self.problems.append(f"/search answered {status}: {reply}")
            return took
        self.samples["search_ms"].append(took * 1000.0)
        self.samples["search_kb"].append(size / 1024.0)
        if self.copy is not None:
            self._trace(self.copy.search, body, reply, took)
        return took

    def compare(self, body: bytes) -> None:
        status, _, _, took = self.client.request("POST", "/compare", body)
        self.attempted += 1
        if status != 200 or took > (COMPARE_TIMEOUT_MS + COMPARE_SLACK_MS) / 1000.0:
            self.failed += 1
            self.samples["late_compare_s"].append(took)

    def self_queries(self) -> None:
        """Each ingested table, searched for itself, comes back first at 1.0."""
        for name, rows in sorted(self.acked.items()):
            body = _encode({"query": self.tables.wire(rows, "query"), "top_k": TOP_K})
            status, reply, _, _ = self.client.request("POST", "/search", body)
            hits = reply["result"]["hits"] if status == 200 and reply.get("ok") else []
            exact = {h["name"] for h in hits if h["similarity"] == 1.0}
            if not hits or hits[0]["similarity"] != 1.0 or name not in exact:
                self.problems.append(
                    f"self-query of {name} did not rank it first at 1.0: {hits}"
                )


def run(seed: int, seconds: float, trace: bool, work: Path, source: Path) -> dict:
    tables = Tables(seed)
    left, right = compare_pair()
    compare_body = _encode(
        {"left": left, "right": right, "timeout_ms": COMPARE_TIMEOUT_MS}
    )
    servers: list[Server] = []

    def start():
        # Each set-up stops the server of the one before it.
        if servers:
            servers.pop().stop()
        store = work / f"store-{len(setup.seconds)}"
        stored = build_store(tables, store)
        servers.append(Server(store, source, work))
        return store, stored

    setup = Setup()
    copy = None
    try:
        store, current = setup.run(start, repeats=SETUP_REPEATS)
        [server] = servers
        client = Client(server.host, server.port)
        copy = InProcessCopy(tables, work / "copy") if trace else None
        session = Session(tables, client, current, copy)
        # The first update of each table after a restart seeds its sketch
        # maintainer; one unmeasured ingest per table pays that once.
        for step in range(TABLES):
            session.ingest(step, measured=False)
        store_bytes = directory_bytes(store)
        rounds, step = 0, TABLES
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            for _ in range(PAIRS_PER_ROUND):
                took = session.ingest(step) + session.search(step)
                session.samples["pair_s"].append(took)
                step += 1
            session.compare(compare_body)
            rounds += 1
            if rounds == 1:
                # Read after a fixed amount of work, so a faster server
                # that completes more rounds does not read as more memory.
                server_rss_mb = server.peak_rss_mb()
        final_rss_mb = server.peak_rss_mb()
        session.self_queries()
        status, stats, _, _ = client.request("GET", "/stats")
        deaths = stats["supervisor"]["deaths_total"] if status == 200 else -1
        client.close()
    finally:
        codes = [s.stop() for s in servers]
        if copy is not None:
            copy.close()
    problems = session.problems
    if codes[-1] != 0:
        problems.append(f"server exited {codes[-1]} after SIGTERM, not 0")

    reopened = IndexStore(store)
    reopened.open()
    try:
        problems.extend(store_problems(reopened, session.acked))
        options = reopened.options()
    finally:
        reopened.close()

    samples = session.samples
    per_layer: dict[str, float] = {}
    if copy is not None:
        per_layer = copy.samples.medians()
        per_layer["serve.worker_deaths"] = deaths
        measured_ingests = len(samples["ingest_ms"])
        per_layer["store.bytes_per_ingest"] = (
            directory_bytes(store) - store_bytes
        ) / max(1, measured_ingests)
        deadline_s = COMPARE_TIMEOUT_MS / 1000.0
        started = time.perf_counter()
        compare_anytime(
            decode_table(left, "left"),
            decode_table(right, "right"),
            deadline=deadline_s,
            options=options,
        )
        overrun = time.perf_counter() - started - deadline_s
        per_layer["runtime.deadline_overrun_ms"] = overrun * 1000.0

    lines = [
        f"serve-index: {TABLES} stored {TABLE} tables of {len(tables.base)} rows, "
        f"{rounds} rounds of {PAIRS_PER_ROUND} x (/ingest, /search) + 1 /compare",
        f"ingest_ms {tail(samples['ingest_ms'])}",
        f"search_ms {tail(samples['search_ms'])}",
        f"/ingest + /search pair (s) {tail(samples['pair_s'])}",
        f"late /compare answers (s) {tail(samples['late_compare_s'] or [0.0])} "
        f"({session.failed} of {session.attempted} requests failed)",
        f"server peak RSS {server_rss_mb:.1f} MB after the first round, "
        f"{final_rss_mb:.1f} MB after round {rounds}",
        f"self-queries: {len(session.acked)} ingested tables searched for "
        "themselves; the reopened store was checked after the server stopped",
    ]
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": problems,
        "lines": lines,
        "per_layer": per_layer,
        "trace_s": session.trace_s,
        "e2e": {
            "setup_s": setup.median_s,
            "peak_rss_mb": server_rss_mb,
            "ingest_ms": median(samples["ingest_ms"]),
            "search_ms": median(samples["search_ms"]),
            # compare_s is declared for the TPC-H workloads; every run must
            # print every metric, so here it is what the client waits for
            # one /ingest and the /search after it.  The failed /compare's
            # late answer is not timed: it overruns its deadline by an
            # amount the fault, not the program's speed, decides.
            "compare_s": median(samples["pair_s"]),
            "result_kb": mean(samples["search_kb"]),
        },
    }
