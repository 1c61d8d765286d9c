"""Shared fixtures: paper-anchored fixture matrices and small networks."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalchron
from causalchron.bayesnet import Cpt, Dag, DiscreteBayesNet
from causalchron.dataset import EventMatrix

NDHD_SITES = ("ndhD_116281", "ndhD_116290", "ndhD_116494", "ndhD_116785", "ndhD_117166")


@pytest.fixture
def table2_matrix() -> EventMatrix:
    """Two-column matrix with joint counts 82 / 144 / 39 / 304 for the pair
    (ndhD_116494, ndhD_116785)."""
    rows = (
        [(0, 0)] * 82
        + [(0, 1)] * 144
        + [(1, 0)] * 39
        + [(1, 1)] * 304
    )
    return EventMatrix(("ndhD_116494", "ndhD_116785"), np.array(rows, dtype=np.int8))


@pytest.fixture
def cooccurrence_matrix() -> EventMatrix:
    """Fully observed matrix where ndhD_116290 appears 8 times alone, 26 times
    with ndhD_116494 only, and 262 times with ndhD_116494 and ndhD_116785."""
    idx = {label: i for i, label in enumerate(NDHD_SITES)}
    rows = []

    def block(count: int, active: tuple[str, ...]) -> None:
        row = np.zeros(len(NDHD_SITES), dtype=np.int8)
        for label in active:
            row[idx[label]] = 1
        rows.extend([row] * count)

    block(8, ("ndhD_116290",))
    block(26, ("ndhD_116290", "ndhD_116494"))
    block(262, ("ndhD_116290", "ndhD_116494", "ndhD_116785"))
    block(40, ())  # target absent; must not contribute
    return EventMatrix(NDHD_SITES, np.array(rows, dtype=np.int8))


@pytest.fixture
def chain_ab() -> DiscreteBayesNet:
    """a -> b with P(a=1)=0.5, P(b=1|a=1)=0.9, P(b=1|a=0)=0.2."""
    dag = Dag(("a", "b"), [("a", "b")])
    return DiscreteBayesNet(
        dag,
        (Cpt("a", (), np.array([0.5])), Cpt("b", ("a",), np.array([0.2, 0.9]))),
    )


def random_network(rng: np.random.Generator, d: int) -> DiscreteBayesNet:
    """Random DAG over d nodes with uniform CPT entries in (0.05, 0.95)."""
    labels = tuple(f"n{i}" for i in range(d))
    order = rng.permutation(d)
    edges = []
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < 0.5:
                edges.append((labels[order[i]], labels[order[j]]))
    dag = Dag(labels, edges)
    cpts = tuple(
        Cpt(n, dag.parents(n), rng.uniform(0.05, 0.95, size=1 << len(dag.parents(n))))
        for n in labels
    )
    return DiscreteBayesNet(dag, cpts)


def fresh_python(code: str) -> object:
    """Run ``code`` in a new interpreter that imports this checkout's package,
    and return the JSON value of its last line of output."""
    src = str(Path(causalchron.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])
