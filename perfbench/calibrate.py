"""Host-speed calibration: a fixed kernel timed between control cycles.

The benchmark runs on a few cores of a shared host whose speed changes in
phases of seconds to minutes, by up to a third.  Wall time alone then
measures the host as much as the program.  The kernel below does a fixed
amount of work of the kinds a control cycle does; it does not call issf_wbc,
so no change to the program moves it.  Timed often during a run, it reads how
fast the host is at that moment, and a rate measured alongside it is rescaled
to a host on which one kernel takes ``REF_S``:

    rate_at_ref = rate * median(kernel seconds) / REF_S

The host slows down in two ways: the core runs fewer instructions per second
(another tenant on the same core, a lower clock), and memory accesses wait
longer (other tenants filling the shared cache and memory bus).  The control
loop is hit by both, so the kernel mixes compute (small numpy linear
algebra, Python objects, compiling Python source, JSON) with streaming over
arrays larger than the core's own caches.  Measured on a shared 2-vCPU
host, the control loop's rate moved 0.55-1.3 times as much as the time of
the compute part alone, depending on the host's phase, and 0.85-1.24 times
as much as the time of this mix (perfbench/README.md).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# About the median kernel seconds of the machine described in
# perfbench/README.md: a fixed scale, so that rescaled rates read close to
# raw ones.
REF_S = 5.0e-3

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((7, 7))
_M = _M @ _M.T + 7.0 * np.eye(7)
_J = _rng.standard_normal((3, 7))
_V = _rng.standard_normal(7)
_BIG = _rng.standard_normal(300_000)   # 2.4 MB, and as much again in _BUF
_BUF = np.empty_like(_BIG)
_DOC = {f"k{i}": [i, float(i), f"s{i}", {"a": i}] for i in range(300)}
_SOURCE = "\n".join(
    f"def f{i}(x, ys):\n"
    f"    total = {i}.5 * x\n"
    f"    for j, y in enumerate(ys):\n"
    f"        if j % {i % 5 + 2} == 0:\n"
    f"            total += y ** 2 - j\n"
    f"    return {{'n': len(ys), 'v': [total, x - {i}]}}\n"
    for i in range(20))


class _Row:
    __slots__ = ("key", "value", "grad")

    def __init__(self, key: str, value: float, grad: list[float]):
        self.key = key
        self.value = value
        self.grad = grad


def _linear_algebra() -> None:
    x = _V
    rows: dict[str, _Row] = {}
    for i in range(24):
        y = np.linalg.solve(_M, x + 0.5)
        z = _J @ y
        x = np.clip(_M @ y / (np.linalg.norm(y) + 1.0), -1.0, 1.0)
        grad = [float(v) for v in z]
        key = f"row|{i & 7}"
        rows[key] = _Row(key, sum(grad) * 0.5 + float(x[0]), grad)
        total = 0.0
        for row in rows.values():
            total += row.value * row.value - row.grad[1]


def _memory() -> None:
    for _ in range(3):
        np.multiply(_BIG, 1.0001, out=_BUF)
        np.add(_BUF, _BIG, out=_BUF)


def kernel() -> float:
    """Seconds of one fixed chunk of work."""
    start = time.perf_counter()
    _linear_algebra()
    compile(_SOURCE, "<calibration>", "exec")
    _memory()
    json.loads(json.dumps(_DOC))
    sorted(_DOC.items(), key=lambda item: item[1][1])
    return time.perf_counter() - start


def host_seconds(samples: list[float]) -> float:
    """The host's kernel seconds over the samples taken during a measurement."""
    return statistics.median(samples)
