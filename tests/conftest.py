"""Fixtures shared by the test modules."""

import importlib
import os
from types import SimpleNamespace

import pytest

from cubenergy import _fanout, intervals, lattice


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker forked."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch, forks):
    """Fan-outs on one process, or on two with every list of two items or
    more forked.  ``forks`` holds the pid of every worker forked."""
    count = request.param
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: count)
    if count > 1:
        monkeypatch.setattr(intervals, "FAN_OUT_MIN_CHUNK", 1)
        monkeypatch.setattr(importlib.import_module("cubenergy.energy"),
                            "SAMPLE_MIN_CHUNK", 1)
        monkeypatch.setattr(importlib.import_module("cubenergy.extension"),
                            "START_FORK_WORK", 1)
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
