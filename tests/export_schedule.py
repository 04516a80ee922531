"""Write a run's records export, and force which process formats which chunk of it.

``streamed_export`` writes a run's records as the CLI does, formatted while the run is simulated;
``export_at_once`` writes a finished trajectory's, which may have been edited after its run, with
every chunk ready before ``commit``.

``forced(monkeypatch, schedule)`` patches ``metrics._take``, through which this process and each
forked worker take chunk tokens, and yields a shared array in which each chunk's entry becomes
``HERE`` or ``WORKER`` once it is taken.  The schedules assume one worker (two usable CPUs).
"Every other chunk" passes one turn byte between the two sides through a pipe each, the worker
first, so that the worker takes the even chunks and this process the odd ones; before reaping, this
process hands the worker one more turn, with which it reads the end of the tokens.
"""

import mmap
import os
from contextlib import contextmanager

import numpy as np

from aimdmarket import metrics
from aimdmarket.market import run

HERE, WORKER = 1, 2
SCHEDULES = ("worker formats every chunk", "worker formats no chunk", "worker formats every other chunk")


def streamed_export(config, scenario, fmt, destination):
    with metrics.RecordsExport(fmt, destination) as records:
        run(config, scenario, records=records)
        return records.commit()


def export_at_once(trajectory, fmt, destination):
    with metrics.RecordsExport(fmt, destination) as records:
        records.start(trajectory)
        records.ready(len(trajectory.total_supply))
        return records.commit()


@contextmanager
def forced(monkeypatch, schedule, chunks=16):
    take, reap, here = metrics._take, metrics.RecordsExport._reap, os.getpid()
    takers = np.frombuffer(mmap.mmap(-1, chunks), np.int8)
    turns = {HERE: os.pipe(), WORKER: os.pipe()}  # (read, write): a byte to read is that side's turn
    os.write(turns[WORKER][1], b".")

    def forced_take(tokens):
        side = HERE if os.getpid() == here else WORKER
        if schedule != SCHEDULES[2]:
            k = None if side == (HERE if schedule == SCHEDULES[0] else WORKER) else take(tokens)
        else:
            os.read(turns[side][0], 1)
            k = take(tokens)
        if k is not None:
            takers[k] = side
        if schedule == SCHEDULES[2]:  # after the taker is recorded, so that it is recorded however soon the side dies
            os.write(turns[WORKER if side == HERE else HERE][1], b".")
        return k

    def reap_after_a_last_turn(self):
        os.write(turns[WORKER][1], b".")
        return reap(self)

    try:
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_take", forced_take)
            patch.setattr(metrics.RecordsExport, "_reap", reap_after_a_last_turn)
            yield takers
    finally:
        for fd in (*turns[HERE], *turns[WORKER]):
            os.close(fd)


def expected_takers(schedule, chunks):
    """Each chunk's taker under ``schedule``."""
    if schedule == SCHEDULES[2]:
        return [WORKER if k % 2 == 0 else HERE for k in range(chunks)]
    return [WORKER if schedule == SCHEDULES[0] else HERE] * chunks
