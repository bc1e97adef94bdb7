"""Measurement plumbing shared by the workloads: spans, medians, the server
subprocess, byte-counting connections, RSS and CPU readers.

Nothing here knows a workload; nothing here edits the program.  Spans are
recorded around calls *into* the program's public functions, either inline
(``with tracer.span(...)``) or by wrapping a module attribute for the
length of a traced phase (``tracer.wrap``), so the layer numbers come from
the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from typing import Any

from repro.serving.client import ConnectionPool

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
HOST = "127.0.0.1"
_CLK_TCK = os.sysconf("SC_CLK_TCK")

# Left to itself the guest scheduler sometimes keeps a client and its server
# on one vCPU and sometimes on two, for minutes at a time: read_batch_cold then
# reads 57 k or 74 k owners/s on identical code.  So the read workloads, which
# are nothing but that pair, pin the harness to the first CPU it may use and
# the server to the last (two cores: one each).  The in-process pipelines of
# churn_rollout and construct keep every core, so parallelism in them shows.
_CPUS = sorted(os.sched_getaffinity(0))
HARNESS_CPU, SERVER_CPU = _CPUS[0], _CPUS[-1]


def pin_harness() -> None:
    os.sched_setaffinity(0, {HARNESS_CPU})


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.  A disabled tracer records nothing and its
    ``span`` is a shared no-op, so workload code is written once."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start s, end s, parent span index or -1, op id)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin_op(self, op: int) -> None:
        self._op = op

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def add(self, name: str, start: float, end: float, op: int) -> None:
        """A finished root span, for hot loops that time themselves."""
        self.spans.append([self._name_id(name), start, end, -1, op])

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span around
        every call; undone by :meth:`unwrap_all`.  No-op when disabled."""
        if not self.enabled:
            return
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with _Span(self, name):
                return original(*args, **kwargs)

        # Remember whether the attribute lived on the owner itself, so an
        # instance-level wrap is deleted rather than frozen in place.
        own = attr in vars(owner)
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def per_op(self, use_self: bool = True) -> dict[str, dict[int, float]]:
        """``name -> op id -> summed (self) seconds`` over all spans."""
        times = self.self_times() if use_self else [s[2] - s[1] for s in self.spans]
        out: dict[str, dict[int, float]] = {}
        for span, seconds in zip(self.spans, times):
            by_op = out.setdefault(self.names[span[0]], {})
            by_op[span[4]] = by_op.get(span[4], 0.0) + seconds
        return out

    def durations(self, name: str) -> list[float]:
        idx = self._name_ids.get(name)
        return [s[2] - s[1] for s in self.spans if s[0] == idx]

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        body = {
            **extra,
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "names": self.names,
            "spans": [
                [s[0], round((s[1] - origin) * 1e6, 1),
                 round((s[2] - origin) * 1e6, 1), s[3], s[4]]
                for s in self.spans
            ],
        }
        with open(path, "w") as f:
            json.dump(body, f, separators=(",", ":"))
            f.write("\n")


class _Span:
    """One open span (a class, not a generator: about 0.5 us per use)."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        stack = tracer._stack
        self._record = [
            tracer._name_id(name), 0.0, 0.0, stack[-1] if stack else -1, tracer._op
        ]

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[1] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._record[2] = time.perf_counter()
        self._tracer._stack.pop()


_NO_SPAN = contextlib.nullcontext()


# -- statistics ------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def p99(values) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]) if ordered else 0.0


def windows(values: list, width: int) -> list[list]:
    """Every run of ``width`` consecutive values (all of them if fewer)."""
    if len(values) <= width:
        return [values]
    return [values[i : i + width] for i in range(len(values) - width + 1)]


def quiet_median(values: list, width: int) -> float:
    """The lowest median of ``width`` consecutive values: the median where
    the host was quietest (its cores run at 1x or ~0.67x in stretches of
    seconds, so a median over a whole phase reads whichever mode prevailed)."""
    return min(median(w) for w in windows(values, width)) if values else 0.0


def quiet_mean(values: list, width: int) -> float:
    """The lowest mean of ``width`` consecutive values."""
    return min(sum(w) / len(w) for w in windows(values, width)) if values else 0.0


def median_us(values) -> float:
    return median(values) * 1e6


def median_ms(values) -> float:
    return median(values) * 1e3


# -- processes -------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class ServerProcess:
    """One ``eppi serve`` subprocess over a snapshot, v2 frames only."""

    def __init__(self, snapshot: str, workdir: str, pinned: bool):
        self.port = free_port()
        self.address = (HOST, self.port)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(workdir, f"server-{self.port}.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot", snapshot,
             "--port", str(self.port), "--protocol", "v2"],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.peak_rss_mb = 0.0
        if pinned:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until a connect succeeds: poll every 2 ms, no fixed sleep."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                socket.create_connection(self.address, timeout=1.0).close()
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"server on port {self.port} did not come up "
                        f"(exit code {self.proc.poll()})"
                    ) from None
                time.sleep(0.002)

    def cpu_seconds(self) -> float:
        """utime + stime of the server from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.peak_rss_mb = _status_mb(self.proc.pid, "VmHWM")
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _status_mb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- byte-counting connections ---------------------------------------------------


class _CountingReader:
    def __init__(self, reader, pool: "CountingPool"):
        self._reader = reader
        self._pool = pool

    async def readexactly(self, n: int) -> bytes:
        data = await self._reader.readexactly(n)
        self._pool.bytes_received += len(data)
        return data


class _CountingWriter:
    def __init__(self, writer, pool: "CountingPool"):
        self._writer = writer
        self._pool = pool

    def write(self, data: bytes) -> None:
        self._pool.bytes_sent += len(data)
        self._writer.write(data)

    def __getattr__(self, name: str):
        return getattr(self._writer, name)


class CountingPool(ConnectionPool):
    """A ``ConnectionPool`` whose sockets count request and response bytes
    (the client reads replies only through ``readexactly``)."""

    def __init__(self, max_idle_per_host: int = 8):
        super().__init__(max_idle_per_host=max_idle_per_host)
        self.bytes_sent = 0
        self.bytes_received = 0

    async def acquire(self, addr):
        reader, writer = await super().acquire(addr)
        if isinstance(reader, _CountingReader):  # a pooled, already wrapped pair
            return reader, writer
        return _CountingReader(reader, self), _CountingWriter(writer, self)
