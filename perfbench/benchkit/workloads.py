"""The four workloads: ``iterate``, ``refresh``, ``serve`` and ``mpp``.

Each workload computes its expected answers once in
:meth:`Workload.prepare`, builds its state in :meth:`Workload.setup`
(generate and load the inputs, start what must run, warm up) and runs
operations for a given time in :meth:`Workload.window`.  Every answer is
checked as soon as its operation has been timed, outside every timer,
and then dropped, so the memory the benchmark keeps does not grow with
the number of operations; :meth:`Workload.check` returns the mismatches
plus those of a final check of the tables.  Every session uses the
default ``SessionOptions``.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from collections import defaultdict, deque
from contextlib import nullcontext

import numpy as np

import repro.mpp as mpp
from repro import Database
from repro.errors import AdmissionError
from repro.server import serve
from repro.types import SqlType
from repro.workloads import (
    components_query,
    pagerank_query,
    reference_components,
    reference_pagerank,
    reference_sssp,
    sssp_query,
    true_shortest_paths,
)

from . import inputs, oracles
from .measure import children_peak_rss_mb, peak_rss_mb


class Recorder:
    """Latencies of one window, by kind (``read``/``write``) and
    statement class.  With ``memory_ops`` set, it also reads the peak
    RSS when that many statements have completed, so that the figure
    covers the same work however fast the engine is."""

    def __init__(self, memory_ops: int = 0):
        self.samples = {"read": defaultdict(lambda: array("d")),
                        "write": defaultdict(lambda: array("d"))}
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.memory_ops = memory_ops
        self.peak_rss_mb: float | None = None

    def add(self, kind: str, statement: str, seconds: float) -> None:
        self.attempted += 1
        self.samples[kind][statement].append(seconds)
        if self.peak_rss_mb is None and self.memory_ops \
                and self.attempted >= self.memory_ops:
            self.peak_rss_mb = peak_rss_mb()

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def mean_latency(self) -> dict[str, float]:
        return {f"{kind}.{name}": float(np.mean(values))
                for kind, by_class in self.samples.items()
                for name, values in by_class.items() if values}


def _timed_loop(seconds: float, tracer, operation, check) -> float:
    """Call ``operation()`` until ``seconds`` have passed (closed loop)
    and pass each answer to ``check``; returns the time spent in
    ``operation()``, checks left out.  Traced runs open a root span per
    operation."""
    spent = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        with (tracer.span("client.op", "client") if tracer
              else nullcontext()):
            answer = operation()
        spent += time.perf_counter() - start
        check(answer)
    return spent


def _load(db: Database, graph: inputs.Graph, with_status: bool) -> None:
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", graph.edges)
    if with_status:
        db.create_table("vertexStatus", [("node", SqlType.INTEGER),
                                         ("status", SqlType.INTEGER)])
        db.load_rows("vertexStatus", graph.status)


class Workload:
    name = ""
    # Statement classes are cycled in a fixed order (else drawn at
    # random); see measure.summarize_classes.
    cycled = True
    # Statements after which the untraced run reads the peak RSS: about
    # a third of what a 20 s window completes on a 2-vCPU host.  The
    # engine's resident set creeps up with the statements it has run
    # (mostly memory the allocator keeps after it is freed), so a figure
    # read at the end of the window would grow with throughput.
    MEMORY_OPS = 0
    # Peak RSS of the largest worker process, once they have ended.
    worker_peak_rss_mb = 0.0

    def __init__(self, seed: int, nodes: int = inputs.NODES):
        self.seed = seed
        self.nodes = nodes
        self.errors: list[str] = []
        self.checked = 0

    def prepare(self) -> None:
        """Untimed work done once per run, before the first set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def engines(self) -> list:
        """Engines whose write lock the traced run times."""
        return []

    def window(self, seconds: float, recorder: Recorder,
               tracer=None) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """The answers' mismatches plus those of a final check."""
        return self.errors

    def counters(self) -> dict:
        """Engine and layer counters; the traced run reports the
        difference across its window."""
        return {}


class Iterate(Workload):
    """PR×25, PR-VS×25, SSSP×25 and connected components, cycled by one
    session over a fixed graph."""

    name = "iterate"
    ITERATIONS = 25
    MEMORY_OPS = 16

    def __init__(self, seed: int, nodes: int = inputs.NODES):
        super().__init__(seed, nodes)
        self.statements = {
            "pr": pagerank_query(self.ITERATIONS),
            "pr_vs": pagerank_query(self.ITERATIONS,
                                    with_vertex_status=True),
            "sssp": sssp_query(inputs.SSSP_SOURCE, self.ITERATIONS),
            "cc": components_query(),
        }
        self.order = list(self.statements)

    def prepare(self) -> None:
        graph = inputs.graph(self.seed, self.nodes)
        edges, n = graph.edges, self.nodes
        available = {node: bool(flag) for node, flag in graph.status}
        self.expected = {
            "pr": oracles.as_vector(
                reference_pagerank(edges, self.ITERATIONS), n),
            "pr_vs": oracles.as_vector(
                reference_pagerank(edges, self.ITERATIONS,
                                   available=available), n),
            "sssp": oracles.as_vector(
                reference_sssp(edges, inputs.SSSP_SOURCE,
                               self.ITERATIONS), n),
            "cc": oracles.as_vector(reference_components(edges), n),
        }

    def setup(self) -> None:
        self.graph = inputs.graph(self.seed, self.nodes)
        self.db = Database()
        _load(self.db, self.graph, with_status=True)
        self.turn = 0
        for name in self.order:       # warm-up: compile and cache
            self._check((name, self._run(name)))

    def _run(self, name: str):
        return self.db.execute(self.statements[name]).table

    def _check(self, answer) -> None:
        name, table = answer
        _check_keyed(self, name, table, self.expected[name])

    def engines(self) -> list:
        return [self.db.engine]

    def window(self, seconds, recorder, tracer=None):
        def operation():
            name = self.order[self.turn % len(self.order)]
            self.turn += 1
            start = time.perf_counter()
            table = self._run(name)
            recorder.add("read", name, time.perf_counter() - start)
            return name, table

        recorder.seconds += _timed_loop(seconds, tracer, operation,
                                        self._check)

    def counters(self) -> dict:
        return self.db.stats.snapshot()


def _check_keyed(workload: Workload, name: str, table,
                 expected: np.ndarray) -> None:
    """Check a (node, value) result against the expected vector."""
    label = f"{name} #{workload.checked}"
    workload.checked += 1
    try:
        got = oracles.keyed_result(table, workload.nodes)
    except ValueError as exc:
        workload.errors.append(f"{label}: {exc}")
        return
    problem = oracles.mismatch(got, expected)
    if problem:
        workload.errors.append(f"{label}: {problem}")


class Refresh(Workload):
    """Each cycle inserts a 100-edge batch, deletes the previous cycle's
    batch, then runs PR×10 or SSSP×10 (alternating) on the changed
    graph."""

    name = "refresh"
    ITERATIONS = 10
    BATCH = 100
    MEMORY_OPS = 150

    def __init__(self, seed: int, nodes: int = inputs.NODES):
        super().__init__(seed, nodes)
        self.statements = {
            "pr": pagerank_query(self.ITERATIONS, coalesced=True),
            "sssp": sssp_query(inputs.SSSP_SOURCE, self.ITERATIONS),
        }

    def prepare(self) -> None:
        base, n = inputs.graph(self.seed, self.nodes).edges, self.nodes
        self.base = np.asarray(base, dtype=np.float64)
        # The vectorized oracles must agree with the repository's.
        cross = {
            "pr": (oracles.pagerank_vector(self.base, n, self.ITERATIONS),
                   reference_pagerank(base, self.ITERATIONS)),
            "sssp": (oracles.sssp_vector(self.base, n, inputs.SSSP_SOURCE,
                                         self.ITERATIONS),
                     reference_sssp(base, inputs.SSSP_SOURCE,
                                    self.ITERATIONS)),
        }
        for name, (vector, reference) in cross.items():
            problem = oracles.mismatch(vector,
                                       oracles.as_vector(reference, n))
            if problem:
                self.errors.append(f"vectorized {name} oracle: {problem}")

    def setup(self) -> None:
        self.graph = inputs.graph(self.seed, self.nodes)
        self.db = Database()
        _load(self.db, self.graph, with_status=False)
        self.batches = inputs.RefreshBatches(self.seed, self.nodes,
                                             self.graph.edges, self.BATCH)
        self.batch: tuple[float, list] | None = None
        self.cycle = 0
        for name in self.statements:  # warm-up on the base graph
            self._check((name, [],
                         self.db.execute(self.statements[name]).table))

    def _check(self, answer) -> None:
        """Check one cycle's read against the oracle on the edges the
        benchmark knows the table to hold: the base plus the batch."""
        name, rows, table = answer
        edges = np.concatenate([self.base,
                                np.asarray(rows, dtype=np.float64)
                                .reshape(-1, 3)])
        if name == "pr":
            want = oracles.pagerank_vector(edges, self.nodes,
                                           self.ITERATIONS)
        else:
            want = oracles.sssp_vector(edges, self.nodes,
                                       inputs.SSSP_SOURCE, self.ITERATIONS)
        _check_keyed(self, name, table, want)

    def engines(self) -> list:
        return [self.db.engine]

    def _write(self, recorder, name: str, sql: str, expected: int) -> None:
        start = time.perf_counter()
        affected = self.db.execute(sql).rowcount
        recorder.add("write", name, time.perf_counter() - start)
        if affected != expected:
            self.errors.append(f"{name} affected {affected} rows, "
                               f"expected {expected}")

    def window(self, seconds, recorder, tracer=None):
        def operation():
            weight, rows = self.batches.next()
            self._write(recorder, "insert", inputs.insert_sql(rows),
                        len(rows))
            if self.batch is not None:
                old_weight, old_rows = self.batch
                self._write(recorder, "delete",
                            inputs.delete_sql(old_weight), len(old_rows))
            self.batch = (weight, rows)
            name = "pr" if self.cycle % 2 == 0 else "sssp"
            self.cycle += 1
            start = time.perf_counter()
            table = self.db.execute(self.statements[name]).table
            recorder.add("read", name, time.perf_counter() - start)
            return name, rows, table

        recorder.seconds += _timed_loop(seconds, tracer, operation,
                                        self._check)

    def check(self) -> list[str]:
        count = self.db.execute("SELECT COUNT(*) FROM edges").scalar()
        want = len(self.base) + (len(self.batch[1]) if self.batch else 0)
        if count != want:
            return self.errors + [f"edges holds {count} rows, expected "
                                  f"{want}"]
        return self.errors

    def counters(self) -> dict:
        return self.db.stats.snapshot()


class _Request:
    """One serve request: its times and a compact answer."""

    __slots__ = ("kind", "key", "value", "due", "sent", "done",
                 "answer", "error")

    def __init__(self, kind, key, value, due, sent):
        self.kind = kind
        self.key = key
        self.value = value
        self.due = due
        self.sent = sent
        self.done = None
        self.answer = None
        self.error = None

    def finished(self, future) -> None:
        done = time.perf_counter()
        error = future.exception()
        if error is not None:
            self.error = repr(error)
        elif self.kind == "update":
            self.answer = future.result().rowcount
        else:
            self.answer = tuple(future.result().rows())
        # Set last: the main thread reads ``done`` as "answer is in".
        self.done = done


class Serve(Workload):
    """Requests through ``repro.server.serve`` on two connections:
    Zipf-keyed point lookups and neighbour aggregates on one, UPDATEs on
    the other, so reads never wait in a session queue behind a write;
    they compete with writes for the engine and the interpreter.

    The measured window is a closed loop with two requests in flight;
    the traced run adds the open-loop ramp (:meth:`max_rate`)."""

    name = "serve"
    cycled = False
    IN_FLIGHT = 2
    WORKERS = 2
    WARMUP_REQUESTS = 400
    MEMORY_OPS = 5000
    # Completed requests are checked and dropped every this many sends.
    RETIRE_EVERY = 64
    # The open-loop ramp of the traced run.
    RATE = 200.0
    RAMP_FACTOR = 1.15
    LATENCY_LIMIT_MS = 50.0

    def prepare(self) -> None:
        edges = inputs.graph(self.seed, self.nodes).edges
        src = np.array([e[0] for e in edges])
        weight = np.array([e[2] for e in edges])
        self.neighbour_counts = np.bincount(src, minlength=self.nodes)
        self.neighbour_sums = np.bincount(src, weights=weight,
                                          minlength=self.nodes)

    def setup(self) -> None:
        # Every serve thread runs on one CPU.  The interpreter lock lets
        # only one of them run Python at a time anyway, and on a shared
        # 2-vCPU host a request handed between threads on two CPUs
        # waited for whichever CPU the host had descheduled: unpinned,
        # throughput spread by 27% over ten runs, pinned by 8-13%.  So
        # serve cannot show a gain that needs the second CPU.  Worker
        # threads inherit the mask when the server creates them.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.graph = inputs.graph(self.seed, self.nodes)
        db = Database()
        _load(db, self.graph, with_status=True)
        self.server = serve(db, workers=self.WORKERS)
        self.clients = [self.server.connect(), self.server.connect()]
        self.stream = inputs.ServeStream(self.seed, self.nodes)
        # What the checks know of vertexStatus: the status of each node
        # after every UPDATE sent so far, the status each node had for
        # the lookups still to be checked, and the UPDATEs since then.
        self.status = dict(self.graph.status)
        self.settled = dict(self.graph.status)
        self.updates: dict[int, list[_Request]] = defaultdict(list)
        self.pending: deque[_Request] = deque()
        self.served = 0
        self.in_server_s = 0.0
        # Warm-up: read-only bursts of 16 fill the plan cache.
        for index in range(self.WARMUP_REQUESTS):
            self._submit(*self.stream.next(reads_only=True),
                         due=time.perf_counter())
            if index % 16 == 15:
                self.server.drain()
                self._retire()
        self.server.drain()
        self._retire()

    def teardown(self) -> None:
        self.server.shutdown()
        os.sched_setaffinity(0, self.affinity)

    def engines(self) -> list:
        return [self.server.engine]

    def _submit(self, kind: str, key: int, value: int, due: float,
                on_done=None):
        """Submit one request; None when admission control rejected it.
        ``server.drain()`` returns only after every done callback ran."""
        sql = inputs.serve_sql(kind, key, value)
        sent = time.perf_counter()
        try:
            future = self.clients[kind == "update"].submit(sql)
        except AdmissionError:
            return None
        request = _Request(kind, key, value, due, sent)
        if kind == "update":
            # One session runs every UPDATE, in submission order.
            self.status[key] = value
            self.updates[key].append(request)
        future.add_done_callback(request.finished)
        if on_done is not None:
            future.add_done_callback(on_done)
        self.pending.append(request)
        return request

    def _retire(self, recorder: Recorder | None = None) -> float:
        """Check, record and drop the completed requests at the head of
        the queue; returns the latest completion time among them.

        Requests retire in submission order, so every UPDATE sent before
        a lookup has completed when the lookup is checked."""
        latest = 0.0
        while self.pending and self.pending[0].done is not None:
            request = self.pending.popleft()
            latest = max(latest, request.done)
            self.served += 1
            self.in_server_s += request.done - request.sent
            if request.error is not None:
                # Counted as failed, not as a wrong answer.
                if recorder is not None:
                    recorder.fail()
                continue
            if recorder is not None:
                kind = "write" if request.kind == "update" else "read"
                recorder.add(kind, request.kind, request.done - request.due)
            self._check(request)
        return latest

    def _check(self, request: _Request) -> None:
        key, got = request.key, request.answer
        if request.kind == "lookup":
            allowed = self._visible_statuses(request)
            if len(got) != 1 or got[0][0] not in allowed:
                self.errors.append(f"lookup {key}: got {got}, expected "
                                   f"one of {sorted(allowed)}")
        elif request.kind == "neighbours":
            want = (int(self.neighbour_counts[key]),
                    float(self.neighbour_sums[key]))
            if len(got) != 1 or got[0][0] != want[0] or \
                    abs(got[0][1] - want[1]) > oracles.TOLERANCE:
                self.errors.append(f"neighbours {key}: got {got}, "
                                   f"expected {want}")
        elif got != 1:
            self.errors.append(f"update {key} affected {got} rows")

    def _visible_statuses(self, read: _Request) -> set:
        """The statuses a lookup may return: that of the last UPDATE of
        its key that had completed when the lookup was sent (else the
        status before it), and that of any UPDATE of the key in flight
        while the lookup ran.  Lookups still to be checked were sent no
        earlier, so the UPDATEs up to that last one are dropped."""
        history = self.updates[read.key]
        last = -1
        for index, update in enumerate(history):
            if update.done is not None and update.error is None \
                    and update.done <= read.sent:
                last = index
        if last >= 0:
            self.settled[read.key] = history[last].value
            del history[:last + 1]
        allowed = {self.settled[read.key]}
        allowed.update(u.value for u in history if u.sent < read.done)
        return allowed

    def _offer(self, seconds: float, rate: float) -> list:
        """Open loop: offer ``rate`` requests/s for ``seconds``; returns
        the requests (None for rejected ones) once all have completed."""
        count = max(1, int(seconds * rate))
        start = time.perf_counter() + 0.005
        issued = []
        for index in range(count):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            issued.append(self._submit(*self.stream.next(), due=due))
        self.server.drain()
        self._retire()
        return issued

    def window(self, seconds, recorder, tracer=None):
        """Closed loop with ``IN_FLIGHT`` requests outstanding: each
        completion sends the next request of the mix."""
        slots = threading.BoundedSemaphore(self.IN_FLIGHT)
        start = time.perf_counter()
        deadline = start + seconds
        latest = start
        sent = 0
        while time.perf_counter() < deadline:
            slots.acquire()
            request = self._submit(*self.stream.next(),
                                   due=time.perf_counter(),
                                   on_done=lambda _: slots.release())
            if request is None:
                slots.release()
                recorder.fail()
                continue
            sent += 1
            if sent % self.RETIRE_EVERY == 0:
                latest = max(latest, self._retire(recorder))
        self.server.drain()
        latest = max(latest, self._retire(recorder))
        recorder.seconds += latest - start

    def max_rate(self, seconds: float) -> dict:
        """Open-loop ramp: 1 s steps from ``RATE`` up by ``RAMP_FACTOR``,
        each request timed from when it was due.  The result is the
        highest offered rate whose read p99 stays within the limit, with
        no rejection and a generator that kept to its schedule within
        the same limit; between the last passing and the first failing
        step the rate is interpolated where the read p99 crosses the
        limit.  The ramp probes for overload, so its rejections are
        reported per step and not counted as failed operations."""
        step_seconds = 1.0
        rate = self.RATE
        passed = None
        steps = []
        deadline = time.perf_counter() + seconds
        while not steps or time.perf_counter() + step_seconds < deadline:
            issued = self._offer(step_seconds, rate)
            rejected = issued.count(None)
            reads = [r.done - r.due for r in issued
                     if r is not None and r.kind != "update"]
            lag = [r.sent - r.due for r in issued if r is not None]
            p99 = float(np.percentile(reads, 99)) * 1e3
            lag_p99 = float(np.percentile(lag, 99)) * 1e3
            ok = (not rejected and p99 <= self.LATENCY_LIMIT_MS
                  and lag_p99 <= self.LATENCY_LIMIT_MS)
            steps.append({"rate": round(rate, 1),
                          "read_p99_ms": round(p99, 2),
                          "lag_p99_ms": round(lag_p99, 2),
                          "rejected": rejected, "ok": ok})
            if not ok:
                if passed is None:      # already over the limit at RATE
                    return {"max_rate_rps": 0.0, "steps": steps,
                            "limit_reached": True}
                low_rate, low_p99 = passed
                share = (self.LATENCY_LIMIT_MS - low_p99) / (p99 - low_p99) \
                    if p99 > low_p99 else 0.0
                best = low_rate + min(max(share, 0.0), 1.0) * \
                    (rate - low_rate)
                return {"max_rate_rps": best, "steps": steps,
                        "limit_reached": True}
            passed = (rate, p99)
            rate *= self.RAMP_FACTOR
        return {"max_rate_rps": passed[0], "steps": steps,
                "limit_reached": False}

    def check(self) -> list[str]:
        final = dict(self.clients[0].execute(
            "SELECT node, status FROM vertexStatus").rows())
        if final != self.status:
            wrong = sum(final.get(k) != v for k, v in self.status.items())
            return self.errors + [f"final vertexStatus differs on {wrong} "
                                  "nodes"]
        return self.errors

    def counters(self) -> dict:
        values = dict(self.server.engine.stats.snapshot())
        values.update({f"server.{k}": v
                       for k, v in self.server.stats.snapshot().items()})
        values["serve.requests"] = self.served
        values["serve.in_server_s"] = self.in_server_s
        return values


class Mpp(Workload):
    """``distributed_pagerank`` (25 supersteps) and ``distributed_sssp``
    to convergence, alternating, on a two-segment cluster backed by a
    two-process worker pool."""

    name = "mpp"
    ITERATIONS = 25
    SEGMENTS = 2
    MEMORY_OPS = 20

    def prepare(self) -> None:
        edges = inputs.graph(self.seed, self.nodes).edges
        self.expected = {
            "pr": oracles.as_vector(
                reference_pagerank(edges, self.ITERATIONS), self.nodes),
            "sssp": oracles.as_vector(
                true_shortest_paths(edges, inputs.SSSP_SOURCE), self.nodes),
        }

    def setup(self) -> None:
        self.graph = inputs.graph(self.seed, self.nodes)
        self.cluster = mpp.Cluster(self.SEGMENTS)
        self.pool = mpp.WorkerPool(self.SEGMENTS)
        self.motion = defaultdict(int)
        self.turn = 0
        for name in ("pr", "sssp"):   # warm-up
            self._check((name, self._run(name)))

    def teardown(self) -> None:
        self.pool.shutdown()
        self.worker_peak_rss_mb = children_peak_rss_mb()

    def _run(self, name: str) -> dict:
        if name == "pr":
            result = mpp.distributed_pagerank(
                self.cluster, self.graph.edges,
                iterations=self.ITERATIONS, pool=self.pool)
            values = result.ranks
        else:
            result = mpp.distributed_sssp(
                self.cluster, self.graph.edges,
                source=inputs.SSSP_SOURCE, pool=self.pool)
            values = result.distances
        for counter in ("iterations", "rows_moved", "bytes_moved",
                        "shuffles", "suppressed_bytes"):
            self.motion[counter] += getattr(result, counter)
        return values

    def _check(self, answer) -> None:
        name, values = answer
        label = f"{name} #{self.checked}"
        self.checked += 1
        if len(values) != self.nodes:
            self.errors.append(f"{label}: {len(values)} nodes")
            return
        problem = oracles.mismatch(oracles.as_vector(values, self.nodes),
                                   self.expected[name])
        if problem:
            self.errors.append(f"{label}: {problem}")

    def window(self, seconds, recorder, tracer=None):
        def operation():
            name = ("pr", "sssp")[self.turn % 2]
            self.turn += 1
            start = time.perf_counter()
            values = self._run(name)
            recorder.add("read", name, time.perf_counter() - start)
            return name, values

        recorder.seconds += _timed_loop(seconds, tracer, operation,
                                        self._check)

    def counters(self) -> dict:
        return {f"mpp.{k}": v for k, v in self.motion.items()}


WORKLOADS = {cls.name: cls for cls in (Iterate, Refresh, Serve, Mpp)}

