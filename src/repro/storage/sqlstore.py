"""Relational store over sqlite3 (the MySQL/PMDB class of Section IV-C).

NCSA keeps compute-node performance data "in a pre-existing MySQL
database containing other system and workload data"; NERSC uses MySQL
"for a variety of job, software usage and node-state data".  The value is
*joinability* — jobs against node state against test results — and the
cost is ingest/query scalability, which the storage-comparison bench
measures against the TSDB.

Schema:

* ``jobs``          — job lifecycle records,
* ``node_state``    — periodic node-state snapshots,
* ``test_results``  — benchmark / health-test outcomes,
* ``samples``       — generic numeric samples (the apples-to-apples
  ingest target for the comparison bench).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Any, Sequence

from ..core.metric import SeriesBatch

__all__ = ["SqlStore", "JobRow", "TestResultRow"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id      INTEGER PRIMARY KEY,
    app         TEXT NOT NULL,
    n_nodes     INTEGER NOT NULL,
    submit_time REAL NOT NULL,
    start_time  REAL,
    end_time    REAL,
    state       TEXT NOT NULL,
    nodes       TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS node_state (
    time        REAL NOT NULL,
    node        TEXT NOT NULL,
    up          INTEGER NOT NULL,
    healthy     INTEGER NOT NULL,
    cpu_util    REAL,
    mem_free_gb REAL,
    power_w     REAL
);
CREATE INDEX IF NOT EXISTS idx_node_state_time ON node_state(time);
CREATE INDEX IF NOT EXISTS idx_node_state_node ON node_state(node);
CREATE TABLE IF NOT EXISTS test_results (
    time    REAL NOT NULL,
    suite   TEXT NOT NULL,
    test    TEXT NOT NULL,
    target  TEXT NOT NULL,
    passed  INTEGER NOT NULL,
    value   REAL,
    detail  TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_test_results_time ON test_results(time);
CREATE TABLE IF NOT EXISTS samples (
    metric    TEXT NOT NULL,
    component TEXT NOT NULL,
    time      REAL NOT NULL,
    value     REAL
);
CREATE INDEX IF NOT EXISTS idx_samples_key
    ON samples(metric, component, time);
"""


@dataclass(frozen=True, slots=True)
class JobRow:
    job_id: int
    app: str
    n_nodes: int
    submit_time: float
    start_time: float | None
    end_time: float | None
    state: str
    nodes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class TestResultRow:
    __test__ = False  # not a pytest test class despite the name

    time: float
    suite: str
    test: str
    target: str
    passed: bool
    value: float | None
    detail: str


class SqlStore:
    """sqlite3-backed relational store (in-memory by default)."""

    def __init__(self, path: str = ":memory:") -> None:
        # a pipeline's tick may run on whichever worker thread the
        # federation driver hands it; access is still serialized (one
        # tick at a time per pipeline), so cross-thread use is safe
        self._db = sqlite3.connect(path, check_same_thread=False)
        self._db.executescript(_SCHEMA)

    def close(self) -> None:
        self._db.close()

    # -- jobs -------------------------------------------------------------------

    def upsert_job(
        self,
        job_id: int,
        app: str,
        n_nodes: int,
        submit_time: float,
        state: str,
        start_time: float | None = None,
        end_time: float | None = None,
        nodes: Sequence[str] = (),
    ) -> None:
        self._db.execute(
            "INSERT INTO jobs VALUES (?,?,?,?,?,?,?,?) "
            "ON CONFLICT(job_id) DO UPDATE SET "
            "state=excluded.state, start_time=excluded.start_time, "
            "end_time=excluded.end_time, nodes=excluded.nodes",
            (
                job_id, app, n_nodes, submit_time,
                start_time, end_time, state, ",".join(nodes),
            ),
        )
        self._db.commit()

    def job(self, job_id: int) -> JobRow | None:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE job_id=?", (job_id,)
        ).fetchone()
        return self._job_row(row) if row else None

    def jobs(
        self,
        state: str | None = None,
        app: str | None = None,
    ) -> list[JobRow]:
        q = "SELECT * FROM jobs WHERE 1=1"
        args: list[Any] = []
        if state is not None:
            q += " AND state=?"
            args.append(state)
        if app is not None:
            q += " AND app=?"
            args.append(app)
        q += " ORDER BY job_id"
        return [self._job_row(r) for r in self._db.execute(q, args)]

    def jobs_running_at(self, t: float) -> list[JobRow]:
        rows = self._db.execute(
            "SELECT * FROM jobs WHERE start_time IS NOT NULL "
            "AND start_time <= ? AND (end_time IS NULL OR end_time > ?)",
            (t, t),
        )
        return [self._job_row(r) for r in rows]

    @staticmethod
    def _job_row(row: tuple) -> JobRow:
        return JobRow(
            job_id=row[0],
            app=row[1],
            n_nodes=row[2],
            submit_time=row[3],
            start_time=row[4],
            end_time=row[5],
            state=row[6],
            nodes=tuple(row[7].split(",")) if row[7] else (),
        )

    # -- node state -----------------------------------------------------------------

    def insert_node_state(
        self,
        time: float,
        node: str,
        up: bool,
        healthy: bool,
        cpu_util: float | None = None,
        mem_free_gb: float | None = None,
        power_w: float | None = None,
    ) -> None:
        self._db.execute(
            "INSERT INTO node_state VALUES (?,?,?,?,?,?,?)",
            (time, node, int(up), int(healthy), cpu_util, mem_free_gb,
             power_w),
        )

    def unhealthy_nodes_at(self, t0: float, t1: float) -> list[str]:
        rows = self._db.execute(
            "SELECT DISTINCT node FROM node_state "
            "WHERE time >= ? AND time < ? AND healthy = 0 ORDER BY node",
            (t0, t1),
        )
        return [r[0] for r in rows]

    # -- test results ------------------------------------------------------------------

    def insert_test_result(self, r: TestResultRow) -> None:
        self._db.execute(
            "INSERT INTO test_results VALUES (?,?,?,?,?,?,?)",
            (r.time, r.suite, r.test, r.target, int(r.passed), r.value,
             r.detail),
        )

    def test_results(
        self,
        suite: str | None = None,
        test: str | None = None,
        only_failures: bool = False,
        t0: float = float("-inf"),
        t1: float = float("inf"),
    ) -> list[TestResultRow]:
        q = "SELECT * FROM test_results WHERE time >= ? AND time < ?"
        args: list[Any] = [t0, t1]
        if suite is not None:
            q += " AND suite=?"
            args.append(suite)
        if test is not None:
            q += " AND test=?"
            args.append(test)
        if only_failures:
            q += " AND passed=0"
        q += " ORDER BY time"
        return [
            TestResultRow(r[0], r[1], r[2], r[3], bool(r[4]), r[5], r[6])
            for r in self._db.execute(q, args)
        ]

    # -- generic samples (comparison-bench surface) ---------------------------------------

    def append(self, batch: SeriesBatch) -> int:
        # one SQL row per sample is what this baseline store measures
        rows = [
            (batch.metric, str(c), float(t), float(v))
            for c, t, v in zip(batch.components, batch.times,  # per-sample: allowed
                               batch.values)
        ]
        self._db.executemany("INSERT INTO samples VALUES (?,?,?,?)", rows)
        return len(rows)

    def commit(self) -> None:
        self._db.commit()

    def query(
        self,
        metric: str,
        component: str,
        t0: float = float("-inf"),
        t1: float = float("inf"),
    ) -> SeriesBatch:
        rows = self._db.execute(
            "SELECT time, value FROM samples WHERE metric=? AND component=?"
            " AND time >= ? AND time < ? ORDER BY time",
            (metric, component, t0, t1),
        ).fetchall()
        return SeriesBatch.for_component(
            metric,
            component,
            [r[0] for r in rows],
            [r[1] for r in rows],
        )

    def sample_count(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM samples").fetchone()[0]

    def footprint_bytes(self) -> int:
        """Approximate database footprint via sqlite page accounting."""
        page_count = self._db.execute("PRAGMA page_count").fetchone()[0]
        page_size = self._db.execute("PRAGMA page_size").fetchone()[0]
        return page_count * page_size
