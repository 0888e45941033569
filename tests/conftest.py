"""Fixtures shared by the test modules."""

import os
from types import SimpleNamespace

import pytest

from cubenergy import intervals, lattice


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch):
    """Fan-outs on one process, or on two with every list of two items or
    more forked.  ``forks`` holds the pid of every worker forked."""
    count = request.param
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(intervals, "_cpu_count", lambda: count)
    if count > 1:
        monkeypatch.setattr(intervals, "FAN_OUT_MIN_CHUNK", 1)
    return SimpleNamespace(count=count, forks=forks)


@pytest.fixture
def slot_widths(monkeypatch):
    """The slot width of every product that convolve_packed reads back."""
    widths = []
    read = lattice._int_slots

    def recording(q, cells, width):
        widths.append(width)
        return read(q, cells, width)

    monkeypatch.setattr(lattice, "_int_slots", recording)
    return widths
