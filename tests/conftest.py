"""Fixtures shared by the test modules."""

import math
import os

import pytest

from polyflow import metric


@pytest.fixture
def overlap_gate(monkeypatch):
    """``gate(on, cpus=(0, 1))`` opens a coupled step's overlap gate for
    every grid (``on``) or for none, and lets the process run on ``cpus``.
    It returns the list of the futures that steps have handed to the
    worker since the fixture was set up."""
    futures = []
    worker = metric._worker

    class Recording:
        def submit(self, *args):
            futures.append(worker(os.getpid()).submit(*args))
            return futures[-1]

    monkeypatch.setattr(metric, "_worker", lambda pid: Recording())

    def gate(on: bool, cpus=(0, 1)) -> list:
        monkeypatch.setattr(metric, "_OVERLAP_CELLS", 1 if on else math.inf)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                            raising=False)
        return futures

    return gate
