import csv
import errno
import io
import json
import math
import mmap
import os
import re
import signal
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from aimdmarket import metrics
from aimdmarket.agent import BRANCHES, Role
from aimdmarket.market import replicate_series, run
from aimdmarket.metrics import (
    CSV_HEADER,
    BandSeries,
    band_text,
    confidence_band,
)
from aimdmarket.scenario import (
    MarketConfig,
    ScenarioMode,
    atomic_writer,
    generate_scenario,
    reference_configs,
    strict_json,
)
from aimdmarket.text import compact, float_text
from export_schedule import SCHEDULES, WORKER, expected_takers, export_at_once, forced, streamed_export
from scalar_oracle import (REPR_LAYOUTS as LAYOUTS, detect_convergence, mean_derivative_series, records_from,
                           run_columns, summarize)


def small_run(horizon=20, seed=5, suppliers=1, consumers=1, initial=10.0):
    config = MarketConfig(suppliers, consumers, horizon=horizon, seed=seed, initial_quantity=initial)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 100.0, 2)
    return config, scenario, run(config, scenario)


# --- detect_convergence (the oracle's) --------------------------------------


def test_detect_constant_series():
    assert detect_convergence([50.0] * 10, 50.0, 0.05, 3) == 0


def test_detect_stepping_series():
    series = [100.0, 90.0, 80.0, 70.0, 60.0, 52.0, 50.5, 50.2, 50.1, 50.0]
    found = detect_convergence(series, 50.0, 0.05, 3)
    # brute-force scan oracle
    band = 0.05 * 50.0
    expected = next(
        i for i in range(len(series) - 2)
        if all(abs(v - 50.0) <= band for v in series[i : i + 3])
    )
    assert found == expected == 5


def test_detect_oscillating_never_converges():
    series = [50.0 * (1.2 if i % 2 else 0.8) for i in range(50)]
    assert detect_convergence(series, 50.0, 0.05, 4) is None


def test_detect_requires_full_window():
    series = [0.0] * 8 + [50.0, 50.0]
    assert detect_convergence(series, 50.0, 0.05, 3) is None


def test_detect_monotone_in_tolerance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        series = list(rng.uniform(0.0, 100.0, size=40))
        target = float(rng.uniform(10.0, 90.0))
        loose = detect_convergence(series, target, 0.5, 4)
        tight = detect_convergence(series, target, 0.1, 4)
        if tight is not None:
            assert loose is not None and loose <= tight


def test_detect_parameter_validation():
    with pytest.raises(ValueError):
        detect_convergence([1.0], 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        detect_convergence([1.0], 1.0, 0.1, 0)


# --- confidence_band ---------------------------------------------------------


def test_band_identical_replicates_zero_width():
    series = [[3.0, 2.0, 1.0]] * 5
    band = confidence_band(series)
    assert band.lower.tolist() == band.mean.tolist() == band.upper.tolist() == [3.0, 2.0, 1.0]
    assert band.replicate_count == 5


def test_band_two_replicates_hand_computed():
    band = confidence_band([[0.0] * 4, [2.0] * 4])
    # sample sd sqrt(2), half-width 1.96 * sqrt(2) / sqrt(2)
    for i in range(4):
        assert band.mean[i] == pytest.approx(1.0)
        assert band.upper[i] - band.mean[i] == pytest.approx(1.96, rel=1e-3)
        assert band.mean[i] - band.lower[i] == pytest.approx(1.96, rel=1e-3)


def test_band_z_is_the_normal_quantile_of_its_level():
    # written out as a literal so that no run imports statistics
    from statistics import NormalDist

    assert repr(metrics.CONFIDENCE_Z) == repr(NormalDist().inv_cdf(0.5 + metrics.CONFIDENCE_LEVEL / 2.0))
    assert repr(metrics.CONFIDENCE_Z) == repr(NormalDist().inv_cdf(0.975))


def test_band_rejects_single_replicate():
    with pytest.raises(ValueError):
        confidence_band([[1.0, 2.0]])


def test_band_rejects_ragged_input():
    with pytest.raises(ValueError):
        confidence_band([[1.0, 2.0], [1.0]])


def test_band_ordering_invariant():
    rng = np.random.default_rng(8)
    series = [list(rng.normal(size=30)) for _ in range(12)]
    band = confidence_band(series)
    for lo, mid, hi in zip(band.lower, band.mean, band.upper):
        assert lo <= mid <= hi


@pytest.mark.parametrize("replicates", [8, 20])
def test_band_bits_do_not_depend_on_input_layout(replicates):
    # numpy's mean and std along axis 0 add the rows in order only over a C-ordered array; over
    # an F-ordered one they add pairwise, which changes hundreds of paper-a's 2000 rounds
    config, scenario = reference_configs()["paper-a"]
    series, _ = replicate_series(replace(config, horizon=2000), scenario, replicates)
    assert (series.dtype, series.shape, series.flags.c_contiguous) == (np.float64, (replicates, 2000), True)
    expected = confidence_band(series)
    for layout in (np.asfortranarray(series), series.tolist()):
        band = confidence_band(layout)
        assert band.replicate_count == expected.replicate_count == replicates
        for name in ("mean", "lower", "upper"):
            assert getattr(band, name).tobytes() == getattr(expected, name).tobytes(), name


# --- export -------------------------------------------------------------------


def test_csv_shape_and_header(tmp_path):
    config, scenario, _ = small_run(horizon=1, suppliers=1, consumers=1)
    path = streamed_export(config, scenario, "csv", tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + one row per agent for the single round


def test_csv_export_byte_identical(tmp_path):
    config, scenario, _ = small_run(horizon=40)
    a = streamed_export(config, scenario, "csv", tmp_path / "a.csv").read_bytes()
    b = streamed_export(config, scenario, "csv", tmp_path / "b.csv").read_bytes()
    assert a == b


def test_json_round_trip(tmp_path):
    # every column of rounds 1..horizon comes back from the JSON export
    config, scenario, result = small_run(horizon=25, suppliers=2, consumers=3)
    p = result.trajectory.population
    columns = run_columns(result.trajectory)
    rounds = json.loads(streamed_export(config, scenario, "json", tmp_path / "r.json").read_text())
    assert [r["round"] for r in rounds] == list(range(1, 26))
    agents = [[{**e, **e["trace"]} for e in r["per_agent"]] for r in rounds]
    totals = [{**r, **r["signals"]} for r in rounds]
    for column in ("quantity", "running_average", "utility_value", "derivative", "backoff_probability", "bernoulli"):
        key = "utility_derivative" if column == "derivative" else column
        assert np.array_equal([[e[key] for e in row] for row in agents], columns[column][1:]), column
    for column in ("total_supply", "total_consumption", "supplier_signal", "consumer_signal", "sum_of_utilities"):
        assert np.array_equal([r[column] for r in totals], columns[column][1:]), column
    branches = [[BRANCHES[code].value for code in row] for row in columns["branch"][1:].tolist()]
    assert [[e["branch"] for e in row] for row in agents] == branches
    ids = [(agent_id, role.value) for agent_id, role in zip(p.agent_ids, p.roles)]
    assert all([(e["agent_id"], e["role"]) for e in row] == ids for row in agents)


def test_json_export_byte_identical(tmp_path):
    config, scenario, _ = small_run(horizon=25)
    a = streamed_export(config, scenario, "json", tmp_path / "a.json").read_bytes()
    b = streamed_export(config, scenario, "json", tmp_path / "b.json").read_bytes()
    assert a == b


def test_export_unknown_format(tmp_path):
    config, scenario, _ = small_run(horizon=1)
    with pytest.raises(ValueError):
        streamed_export(config, scenario, "parquet", tmp_path / "r.x")


def test_export_write_failure_carries_path(tmp_path):
    config, scenario, _ = small_run(horizon=1)
    missing = tmp_path / "no" / "such" / "dir" / "r.csv"
    with pytest.raises(OSError, match="r.csv"):
        streamed_export(config, scenario, "csv", missing)


def test_export_formatting_keeps_signed_zero():
    # every layout, and each value on its own, where its row is as wide as its text
    values = np.array(LAYOUTS).reshape(2, -1)
    expected = [repr(v) for v in LAYOUTS]
    assert [compact(row).decode() for row in float_text(values)] == expected
    assert [compact(float_text(np.array([v]))).decode() for v in LAYOUTS] == expected


def test_failed_writes_leave_no_partial_file(tmp_path):
    config, scenario, _ = small_run(horizon=3)
    band = confidence_band([[0.0, 1.0], [2.0, 3.0]])
    missing = tmp_path / "no" / "such" / "dir"
    for fmt in ("csv", "json"):
        with pytest.raises(OSError):
            streamed_export(config, scenario, fmt, missing / f"r.{fmt}")
        with pytest.raises(OSError):
            with atomic_writer(missing / f"band.{fmt}") as fh:
                fh.writelines(band_text(band, fmt))
    assert not (tmp_path / "no").exists()

    earlier = tmp_path / "summary.json"
    earlier.write_text("earlier\n")
    with pytest.raises(ValueError):  # strict JSON: no NaN or Infinity tokens
        with atomic_writer(earlier) as fh:
            fh.write(strict_json({"value": float("inf")}))
    with pytest.raises(RuntimeError):
        with atomic_writer(earlier) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    with pytest.raises(TypeError):  # bytes only
        with atomic_writer(earlier) as fh:
            fh.write("text")
    assert earlier.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def _assert_no_leftovers(directory, temporary):
    assert list(directory.iterdir()) == []  # no artifact or temp file
    assert list(temporary.iterdir()) == []  # the workers' files have no name
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def temporary(tmp_path, monkeypatch):
    # the directory of the export workers' temporary files
    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


# a worker, this process, or this process interrupted, fails to format a chunk: 4 chunks between this
# process and one worker, which takes every chunk if it fails, else every other chunk and is killed
@pytest.mark.parametrize("failing", ["worker", "this process", "interrupted"])
def test_failed_export_chunk_leaves_no_file_or_process(failing, tmp_path, temporary, monkeypatch):
    _, _, result = small_run(horizon=769)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    here, chunk_rows = os.getpid(), metrics._chunk_rows

    def fail_on_one_side(*args):
        if (os.getpid() == here) == (failing == "worker"):
            return chunk_rows(*args)
        raise KeyboardInterrupt if failing == "interrupted" else RuntimeError("chunk failed")

    monkeypatch.setattr(metrics, "_chunk_rows", fail_on_one_side)
    out = tmp_path / "out"
    out.mkdir()
    schedule = SCHEDULES[0] if failing == "worker" else SCHEDULES[2]
    expected = {"worker": (OSError, r"r\.{fmt}: an export worker exited with status 1"),
                "this process": (RuntimeError, "chunk failed"), "interrupted": (KeyboardInterrupt, None)}[failing]
    for fmt in ("csv", "json"):
        with forced(monkeypatch, schedule):
            with pytest.raises(expected[0], match=expected[1] and expected[1].format(fmt=fmt)):
                export_at_once(result.trajectory, fmt, out / f"r.{fmt}")
        _assert_no_leftovers(out, temporary)


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_export_names_the_first_column_non_finite_in_any_chunk(schedule, tmp_path, temporary, monkeypatch):
    # chunk 2's running average is NaN, and chunk 3's quantity: the refusal names quantity, the
    # first export column, whichever process finds which chunk
    _, _, result = small_run(horizon=769)
    trajectory = result.trajectory
    trajectory.running_average[600, 0] = math.nan
    trajectory.quantity[769, 1] = math.nan
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "out"
    out.mkdir()
    for fmt in ("csv", "json"):
        with forced(monkeypatch, schedule) as takers:
            with pytest.raises(ValueError, match="non-finite: records column quantity$"):
                export_at_once(trajectory, fmt, out / f"r.{fmt}")
        assert takers[2] == expected_takers(schedule, 4)[2]
        _assert_no_leftovers(out, temporary)


@pytest.mark.parametrize("schedule", SCHEDULES[:2])
def test_export_names_a_utility_value_past_the_float_range(schedule, tmp_path, temporary, monkeypatch):
    # a running average whose squared gap to the optimum overflows: u is -inf, in whichever process
    # computes it, and the refusal names the column
    _, _, result = small_run(horizon=769)
    result.trajectory.running_average[600, 0] = 1e300
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "out"
    out.mkdir()
    with forced(monkeypatch, schedule):
        with pytest.raises(ValueError, match="non-finite: records column utility_value$"):
            export_at_once(result.trajectory, "csv", out / "r.csv")
    _assert_no_leftovers(out, temporary)


def test_a_worker_killed_mid_run_fails_the_export(tmp_path, temporary, monkeypatch):
    config, scenario, _ = small_run(horizon=769)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    here, chunk_rows = os.getpid(), metrics._chunk_rows

    def killed_in_a_worker(*args):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk_rows(*args)

    monkeypatch.setattr(metrics, "_chunk_rows", killed_in_a_worker)
    out = tmp_path / "out"
    out.mkdir()
    with forced(monkeypatch, SCHEDULES[0]):
        failure = f"cannot write {out / 'r.csv'}: an export worker exited with status -9"
        with pytest.raises(OSError, match=f"^{re.escape(failure)}$"):
            with metrics.RecordsExport("csv", out / "r.csv") as records:
                run(config, scenario, records=records)
                records.commit()
    _assert_no_leftovers(out, temporary)


@pytest.mark.skipif(sys.platform != "linux", reason="fcntl.F_SETPIPE_SZ is Linux's")
def test_an_export_worker_takes_every_chunk_of_a_long_run_before_commit(tmp_path, monkeypatch):
    # every pipe the export makes holds one page (4096 B); the worker formats all 211 chunks while
    # the run is simulated, so that nothing it has formatted waits on this process
    import fcntl

    pipe = os.pipe

    def one_page_pipe():
        ends = pipe()
        fcntl.fcntl(ends[1], fcntl.F_SETPIPE_SZ, 4096)
        return ends

    chunks = 211
    config = MarketConfig(1, 1, horizon=chunks * metrics.EXPORT_CHUNK - 1, seed=5, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 100.0, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "out"
    out.mkdir()
    with forced(monkeypatch, SCHEDULES[0], chunks=chunks) as takers:
        monkeypatch.setattr(os, "pipe", one_page_pipe)
        with metrics.RecordsExport("csv", out / "r.csv") as records:
            trajectory = run(config, scenario, records=records).trajectory
            deadline = time.monotonic() + 20
            while (takers == 0).any() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert takers.tolist() == [WORKER] * chunks
            records.commit()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    expected = export_at_once(trajectory, "csv", tmp_path / "expected.csv").read_bytes()
    assert (out / "r.csv").read_bytes() == expected


def _one_cpu_export(trajectory, fmt, destination, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return export_at_once(trajectory, fmt, destination).read_bytes()


@pytest.mark.skipif(sys.platform != "linux", reason="fcntl.F_SETPIPE_SZ is Linux's")
def test_an_export_worker_announces_more_chunks_than_a_pipe_holds_before_commit(tmp_path, monkeypatch):
    # a one-page pipe holds 512 announcements of 8 B; ready() drains them while the run is simulated,
    # so that the worker formats all 530 chunks before commit and none waits on its announcement.  The
    # token pipe holds one page too, which takes no token once it is full until the worker has read the
    # whole page, so that a worker 18 chunks behind the run would leave the last ones to commit, as
    # designed: ready() hands out chunks only once the worker has taken every chunk handed out before
    import fcntl

    pipe, ready, chunks = os.pipe, metrics.RecordsExport.ready, 530

    def one_page_pipe():
        ends = pipe()
        fcntl.fcntl(ends[1], fcntl.F_SETPIPE_SZ, 4096)
        return ends

    config, scenario, _ = small_run(horizon=chunks * metrics.EXPORT_CHUNK - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with forced(monkeypatch, SCHEDULES[0], chunks=chunks) as takers:

        def ready_once_every_chunk_sent_is_taken(records, rounds):
            while not takers[:records._sent].all() and time.monotonic() < deadline:
                time.sleep(0.001)
            ready(records, rounds)

        monkeypatch.setattr(os, "pipe", one_page_pipe)
        monkeypatch.setattr(metrics.RecordsExport, "ready", ready_once_every_chunk_sent_is_taken)
        with metrics.RecordsExport("csv", tmp_path / "r.csv") as records:
            deadline = time.monotonic() + 30
            trajectory = run(config, scenario, records=records).trajectory
            while (takers == 0).any() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert takers.tolist() == [WORKER] * chunks
            records.commit()
    expected = _one_cpu_export(trajectory, "csv", tmp_path / "expected.csv", monkeypatch)
    assert (tmp_path / "r.csv").read_bytes() == expected


def test_export_holds_at_most_two_of_its_own_chunks_beyond_the_written_prefix(tmp_path, monkeypatch):
    # the worker takes chunks 0 and 1, the only ones handed out, and formats chunk 0 only once this
    # process has formatted two of the chunks never sent (2..5) and has had time for a third: this
    # process finishes chunks 2 and 3 before the worker finishes 0 and 1, holds them, then waits
    _, _, result = small_run(horizon=6 * metrics.EXPORT_CHUNK - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    here, chunk_rows = os.getpid(), metrics._chunk_rows
    # formatted[0]: chunks this process has formatted; formatted[1]: that count when the worker went on
    formatted = np.frombuffer(mmap.mmap(-1, 16), np.int64)

    def worker_waits_on_chunk_0(fmt, rows, *args):
        if os.getpid() == here:
            text = chunk_rows(fmt, rows, *args)
            formatted[0] += 1
            return text
        if rows.start < metrics.EXPORT_CHUNK:
            deadline = time.monotonic() + 20
            while formatted[0] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.3)
            formatted[1] = formatted[0]
        return chunk_rows(fmt, rows, *args)

    for fmt in ("csv", "json"):
        expected = _one_cpu_export(result.trajectory, fmt, tmp_path / f"expected.{fmt}", monkeypatch)
        formatted[:] = 0
        with forced(monkeypatch, SCHEDULES[0]) as takers:
            monkeypatch.setattr(metrics, "_chunk_rows", worker_waits_on_chunk_0)
            with metrics.RecordsExport(fmt, tmp_path / f"r.{fmt}") as records:
                records.start(result.trajectory)
                records.ready(2 * metrics.EXPORT_CHUNK)
                records.commit()
        assert takers[:6].tolist() == [WORKER, WORKER, 0, 0, 0, 0]
        assert formatted.tolist() == [4, 2], fmt
        assert (tmp_path / f"r.{fmt}").read_bytes() == expected, fmt


def test_a_worker_killed_once_the_export_destination_is_open_fails_it(tmp_path, temporary, monkeypatch):
    _, _, result = small_run(horizon=769)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    here, chunk_rows = os.getpid(), metrics._chunk_rows
    out = tmp_path / "out"
    out.mkdir()
    opened = np.frombuffer(mmap.mmap(-1, 1), np.int8)  # the worker saw the destination's temporary file

    def killed_once_the_destination_is_open(*args):
        if os.getpid() != here:
            deadline = time.monotonic() + 20
            while not opened[0] and time.monotonic() < deadline:
                opened[0] = any(path.name.startswith(".r.csv.") for path in out.iterdir())
                time.sleep(0.005)
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk_rows(*args)

    monkeypatch.setattr(metrics, "_chunk_rows", killed_once_the_destination_is_open)
    failure = f"cannot write {out / 'r.csv'}: an export worker exited with status -9"
    with forced(monkeypatch, SCHEDULES[0]):
        with pytest.raises(OSError, match=f"^{re.escape(failure)}$"):
            export_at_once(result.trajectory, "csv", out / "r.csv")
    assert opened[0]
    _assert_no_leftovers(out, temporary)


def test_export_reads_each_worker_chunk_in_full(tmp_path, monkeypatch):
    # one pread returns at most 0x7ffff000 bytes on Linux; here at most 4096, and every chunk is the worker's
    _, _, result = small_run(horizon=769)
    expected = _one_cpu_export(result.trajectory, "json", tmp_path / "expected.json", monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pread, reads = os.pread, []

    def short_pread(fd, length, offset):
        reads.append(length)
        return pread(fd, min(length, 4096), offset)

    monkeypatch.setattr(os, "pread", short_pread)
    with forced(monkeypatch, SCHEDULES[0]) as takers:
        got = export_at_once(result.trajectory, "json", tmp_path / "r.json").read_bytes()
    assert takers[:4].tolist() == [WORKER] * 4
    assert len(reads) > 4 and got == expected  # more reads than chunks


def test_export_forks_its_workers_while_a_helper_thread_runs(tmp_path, monkeypatch):
    # from Python 3.12, os.fork() in a process with more than one thread issues a DeprecationWarning;
    # as an error it is cleared inside os.fork(), which returns in both processes
    _, _, result = small_run(horizon=769)
    expected = _one_cpu_export(result.trajectory, "csv", tmp_path / "expected.csv", monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            got = export_at_once(result.trajectory, "csv", tmp_path / "r.csv").read_bytes()
    finally:
        stop.set()
        helper.join(timeout=10)
    assert not helper.is_alive() and got == expected


@pytest.mark.skipif(sys.platform != "linux", reason="lists the open descriptors in /proc/self/fd")
@pytest.mark.parametrize("failing", [0, 1], ids=["token pipe", "announcement pipe"])
def test_an_export_that_cannot_make_its_pipes_leaks_no_descriptor(failing, tmp_path, temporary, monkeypatch):
    # os.pipe fails with EMFILE on its first call, or on its second once the token pipe is made
    _, _, result = small_run(horizon=769)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pipe, calls = os.pipe, []

    def pipe_out_of_descriptors():
        calls.append(len(calls))
        if len(calls) > failing:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return pipe()

    monkeypatch.setattr(os, "pipe", pipe_out_of_descriptors)
    out = tmp_path / "out"
    out.mkdir()
    before = sorted(os.listdir("/proc/self/fd"))
    destination = out / "r.csv"
    with pytest.raises(OSError) as refused:
        with metrics.RecordsExport("csv", destination) as records:
            records.start(result.trajectory)
    assert str(refused.value) == f"cannot write {destination}: [Errno {errno.EMFILE}] " \
                                 f"{os.strerror(errno.EMFILE)}"
    assert len(calls) == failing + 1
    assert sorted(os.listdir("/proc/self/fd")) == before
    _assert_no_leftovers(out, temporary)


def test_one_writer_where_fork_is_missing(tmp_path, monkeypatch):
    config, scenario, _ = small_run(horizon=769)
    expected = streamed_export(config, scenario, "csv", tmp_path / "forked.csv").read_bytes()
    monkeypatch.delattr(os, "fork", raising=False)
    assert metrics._usable_cpus() == 1
    assert streamed_export(config, scenario, "csv", tmp_path / "r.csv").read_bytes() == expected


def test_band_export_csv_and_json():
    band = confidence_band([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    lines = b"".join(band_text(band, "csv")).decode().splitlines()
    assert lines[0] == "round,mean,lower,upper,replicate_count"
    assert len(lines) == 3
    payload = json.loads(b"".join(band_text(band, "json")))
    assert payload["replicate_count"] == 3
    assert payload["mean"] == [2.0, 3.0]


def test_band_text_refuses_an_unknown_format():
    band = confidence_band([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match=r"^unknown export format: xml$"):
        band_text(band, "xml")


def test_band_csv_bytes_match_csv_writer():
    # the rows csv.writer wrote, for a value in every repr layout in each column
    mean, lower, upper = LAYOUTS, LAYOUTS[1:] + LAYOUTS[:1], LAYOUTS[::-1]
    band = BandSeries(np.array(mean), np.array(lower), np.array(upper), 7)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["round", "mean", "lower", "upper", "replicate_count"])
    for i in range(len(LAYOUTS)):
        writer.writerow([i + 1, repr(mean[i]), repr(lower[i]), repr(upper[i]), band.replicate_count])
    written = b"".join(band_text(band, "csv"))
    assert written == expected.getvalue().encode()
    assert written.endswith(b"15,0.30000000000000004,1.5,0.0001,7\n16,1.5,1e-05,1e-05,7\n")


# --- series helpers ------------------------------------------------------------


def test_mean_derivative_series_matches_manual():
    _, _, result = small_run(horizon=10, suppliers=2, consumers=3)
    records = records_from(result.trajectory)[1:]
    series = mean_derivative_series(records, Role.SUPPLIER)
    assert len(series) == 10
    manual = [
        sum(e.utility_derivative for e in r.per_agent if e.role is Role.SUPPLIER) / 2
        for r in records
    ]
    assert series == manual


# --- summarize -------------------------------------------------------------------


def test_summarize_single_round_equals_that_round():
    _, scenario, result = small_run(horizon=1)
    s, trajectory = result.summary, result.trajectory
    assert s["final_round"] == 1
    assert s["window"] == 1
    assert s["trailing_mean_supply"] == trajectory.total_supply[1]
    assert s["trailing_mean_consumption"] == trajectory.total_consumption[1]
    assert s["final_sum_of_utilities"] == run_columns(trajectory)["sum_of_utilities"][1]


def test_summarize_window_rule():
    _, scenario, result = small_run(horizon=250)
    assert result.summary["window"] == 100  # max(100, 10% of 250)
    config = MarketConfig(1, 1, horizon=3000, seed=5, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 100.0, 2)
    result = run(config, scenario)
    assert result.summary["window"] == 300


def test_summarize_totals_match_tail():
    _, _, result = small_run(horizon=30)
    s = result.summary
    tail = result.trajectory.total_supply[-s["window"] :].tolist()
    assert s["trailing_mean_supply"] == pytest.approx(sum(tail) / s["window"])


def test_summarize_per_agent_distances():
    config = MarketConfig(2, 2, gamma=0.0, horizon=400, seed=9, initial_quantity=0.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 150.0, 7)
    result = run(config, scenario)
    for agent in result.summary["agents"]:
        assert agent["optimum"] is not None
        assert agent["distance_to_optimum"] == pytest.approx(
            abs(agent["final_running_average"] - agent["optimum"])
        )
        # gamma=0: averages settle within alpha of the optimum
        assert agent["distance_to_optimum"] <= 5.0 + 1.0


def test_summarize_sqrt_suppliers_have_no_optimum():
    config = MarketConfig(1, 1, horizon=10, seed=3, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.MONOTONE_SUPPLIERS, 100.0, 2)
    result = run(config, scenario)
    supplier = next(a for a in result.summary["agents"] if a["role"] == "supplier")
    assert supplier["optimum"] is None
    assert supplier["distance_to_optimum"] is None


def test_summarize_requires_records():
    _, scenario, _ = small_run(horizon=1)
    with pytest.raises(ValueError):
        summarize([], scenario)
