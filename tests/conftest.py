"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.core.model import InformationNetwork, MembershipMatrix


@pytest.fixture(autouse=True)
def no_leaked_triple_producers():
    """Fail any test that leaves a triple-factory producer thread alive."""
    before = set(threading.enumerate())
    yield
    leaked = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("triple-producer-") and t not in before
    ]
    if leaked:
        pytest.fail(f"test left triple producer threads alive: {leaked}")


@pytest.fixture
def rng() -> random.Random:
    """Seeded stdlib RNG for protocol code."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def np_rng() -> np.random.Generator:
    """Seeded numpy RNG for vectorized code."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_matrix() -> MembershipMatrix:
    """The 3-provider / 3-owner matrix of paper Fig. 2.

    p0 holds {t0, t1}, p1 holds {t1}, p2 holds {t0, t2} (plus p2 extended
    so every owner has at least one provider).
    """
    matrix = MembershipMatrix(3, 3)
    matrix.set(0, 0)
    matrix.set(0, 1)
    matrix.set(1, 1)
    matrix.set(2, 0)
    matrix.set(2, 2)
    return matrix


@pytest.fixture
def hospital_network() -> InformationNetwork:
    """A small HIE-flavoured network with delegations in place."""
    net = InformationNetwork(
        5, provider_names=[f"hospital-{i}" for i in range(5)]
    )
    celebrity = net.register_owner("celebrity", epsilon=0.9)
    average = net.register_owner("average-patient", epsilon=0.4)
    frequent = net.register_owner("frequent-flyer", epsilon=0.6)
    net.delegate(celebrity, 2, payload="oncology record")
    net.delegate(average, 0, payload="checkup")
    net.delegate(average, 1, payload="x-ray")
    for pid in range(5):
        net.delegate(frequent, pid, payload=f"visit-{pid}")
    return net
