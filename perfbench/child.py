"""One benchmark sample: set up, call ``aimdmarket.cli.main`` once, report.

Run by ``run.py`` as a fresh interpreter per sample (``run.py`` imports
only ``TRACED`` from it):

    python3 perfbench/child.py REPORT [--trace SPANS] -- CLI-ARGS...

``PERFBENCH_LAUNCH`` holds the parent's ``time.monotonic()`` just before
the process was started, so ``setup_s`` covers interpreter start-up,
``import aimdmarket`` and reference scenario sampling.  ``wall_s`` is the
duration of the ``cli.main`` call alone.  ``calibration_s`` times a fixed
loop just before and just after that call, so the parent can express
``wall_s`` at a reference host speed.  The report is one JSON object.

With ``--trace`` the public functions of every layer are wrapped from
outside, at every module attribute that names them, so callers that
imported a function by name (``cli`` and ``market`` do) call the wrapper.
Spans (name, start, end, parent) are kept in flat arrays in memory and
written to SPANS as ``.npz`` after the call returns.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array

# (span name, home module, attribute path); one wrapped function per layer
# boundary the benchmark reports on.
TRACED = (
    ("cli.main", "aimdmarket.cli", "main"),
    ("scenario.reference_configs", "aimdmarket.scenario", "reference_configs"),
    ("scenario.save_config_file", "aimdmarket.scenario", "save_config_file"),
    ("market.run", "aimdmarket.market", "run"),
    ("market.replicate_series", "aimdmarket.market", "replicate_series"),
    ("market.advance_round", "aimdmarket.market", "advance_round"),
    ("market.compute_signals", "aimdmarket.market", "compute_signals"),
    ("agent.step", "aimdmarket.agent", "step"),
    ("utility.evaluate", "aimdmarket.utility", "UtilitySpec.evaluate"),
    ("utility.derivative", "aimdmarket.utility", "UtilitySpec.derivative"),
    ("metrics.summarize", "aimdmarket.metrics", "summarize"),
    ("metrics.mean_derivative_series", "aimdmarket.metrics", "mean_derivative_series"),
    ("metrics.confidence_band", "aimdmarket.metrics", "confidence_band"),
    ("metrics.export_run", "aimdmarket.metrics", "export_run"),
    ("metrics.export_band_series", "aimdmarket.metrics", "export_band_series"),
)


class SpanRecorder:
    """Flat, append-only span storage; a span's parent is the span open
    when it started (-1 for a root)."""

    def __init__(self, names):
        self.names = list(names)
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name, fn):
        nid = self.names.index(name)
        name_id, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(open_[-1])
            start.append(0.0)
            end.append(0.0)
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                open_.pop()

        return traced

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def calibrate() -> float:
    """Time a fixed pure-Python loop of float arithmetic and ``repr``, the
    instruction mix of the simulator and its exporters."""
    t0 = time.perf_counter()
    total = 0.0
    chars = 0
    for i in range(150_000):
        x = i * 0.37
        total += x * x / (x + 1.0)
        chars += len(repr(x))
    return time.perf_counter() - t0


def install_tracing(recorder: SpanRecorder) -> list[str]:
    """Wrap every TRACED function; return the names that no longer exist."""
    absent = []
    package = [m for n, m in sys.modules.items() if n == "aimdmarket" or n.startswith("aimdmarket.")]
    for name, module_name, attr in TRACED:
        owner = sys.modules.get(module_name)
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            absent.append(name)
            continue
        wrapped = recorder.wrap(name, original)
        if owner_path:
            setattr(owner, leaf, wrapped)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    report_path = own[0]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    import numpy
    import aimdmarket
    from aimdmarket import cli, scenario

    scenario.reference_configs()
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_LAUNCH"])
    report = {
        "setup_s": setup_s,
        "package_file": aimdmarket.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    recorder = SpanRecorder(name for name, _, _ in TRACED) if spans_path else None
    if recorder is not None:
        report["absent"] = install_tracing(recorder)
    calibrate()  # warm-up
    before = calibrate()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    report["wall_s"] = time.perf_counter() - t0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["calibration_s"] = (before + calibrate()) / 2
    if recorder is not None:
        recorder.save(spans_path)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
