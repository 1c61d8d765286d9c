"""Benchmark workloads and their seeded input generator.

The generator uses numpy only, never the program under test, so a change
to the program cannot change the inputs it is measured on.  It reproduces
the reads of ``causalchron.pipeline.simulate`` for the presets
``ndhb-like``, ``ndhd-like`` and ``chain-5`` at scenario seed 0, as the
seed commit draws them (same seed derivation, same draw order).

Each workload's reads are that one fixed sample; ``--seed`` permutes its
rows and is also the pipeline's master seed, which draws the refutation
subsets and placebo columns, the stability subsamples and the
falsification relabelings.  The sample is held fixed because the work of
a run follows the learned graphs: exact effects cost 2^(|adjustment set| +
|mediators|) queries per edge, and with a fresh sample per seed the
``ndhb``-shaped pipeline time ranged from 8.8 s to 14.8 s over four seeds
on a 2-core Xeon.  Row order and the master seed leave the amount of work
nearly unchanged while still changing the input bytes, the subsets and
the permutations from seed to seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MISSING = -1
TOKENS = np.array(["NaN", "False", "True"])  # indexed by value + 1

#: scenario seed of every workload's sample (see above)
SCENARIO_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    labels: tuple[str, ...]
    n_rows: int
    #: mean missing block length as a share of the row (0 = complete data)
    missing_rate: float
    #: "chain" (x1 -> x2 -> ... with strong 0.1/0.9 tables) or "random"
    network: str
    edge_prob: float = 0.0
    #: PipelineConfig fields other than input, output and seed
    config: dict = field(default_factory=dict)
    #: (learner, undirected edges of the generating network): every edge that
    #: learner reports must be one of them
    true_skeleton: tuple[str, tuple[tuple[str, str], ...]] | None = None

    def _skeleton(self, run_dir: Path) -> tuple[set[frozenset], set[frozenset]]:
        """(adjacencies the learner reported, adjacencies of the network)."""
        algo, pairs = self.true_skeleton
        lines = (run_dir / f"dag.{algo}.edges").read_text(encoding="utf-8").splitlines()
        found = {frozenset(ln.split("\t")) for ln in lines if ln and not ln.startswith("#")}
        return found, {frozenset(p) for p in pairs}

    def check(self, run_dir: Path) -> list[str]:
        """Workload-specific output checks; one line per problem.

        A learned adjacency outside the generating network is an error.  A
        missing one is not: on binary chain data the orientation of an
        adjacent pair is not identifiable by least squares, so across the
        lambda grid the fits may split one pair between its two directions
        and neither reaches the stability threshold.  The program promises
        full recovery only as a rate over seeds (acceptance criterion 5),
        so one seed cannot be held to it; ``recovered`` reports it instead.
        """
        if self.true_skeleton is None:
            return []
        found, expected = self._skeleton(run_dir)
        extra = found - expected
        if extra:
            return [f"{self.true_skeleton[0]} reports adjacencies {sorted(map(sorted, extra))} "
                    "outside the generating network"]
        return []

    def recovered(self, run_dir: Path) -> str | None:
        """How many of the network's adjacencies the learner found, as "k/n"."""
        if self.true_skeleton is None:
            return None
        found, expected = self._skeleton(run_dir)
        return f"{len(found & expected)}/{len(expected)}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ndhb-effects",
            why="12 events x 1899 reads, mode fill: exact inference and refutation refits dominate",
            labels=tuple(
                f"ndhB_{site}"
                for site in (
                    94622, 94999, 95225, 95608, 95644, 95650,
                    96419, 96439, 96457, 96579, 96698, 97016,
                )
            ),
            n_rows=1899,
            missing_rate=0.5,
            network="random",
            edge_prob=0.25,
            config={"impute_method": "mode"},
        ),
        Workload(
            name="ndhd-impute",
            why="5 events x 7752 reads, round-robin k-NN fill dominates time and memory",
            labels=tuple(f"ndhD_{site}" for site in (116281, 116290, 116494, 116785, 117166)),
            n_rows=7752,
            missing_rate=0.35,
            network="random",
            edge_prob=0.25,
            config={"impute_method": "round_robin"},
        ),
        Workload(
            name="chain5-stability",
            why="complete chain-5 data, 8 lambdas x 5 resamples: NOTEARS fits in scipy L-BFGS-B dominate",
            labels=tuple(f"x{i + 1}" for i in range(5)),
            n_rows=2000,
            missing_rate=0.0,
            network="chain",
            config={
                "algorithms": ("notears-stability",),
                "learner_params": {
                    # the values of default_lambda_grid(1e-3, 1.0, 8)
                    "notears-stability": {
                        "lambda_grid": tuple(
                            float(v) for v in np.logspace(np.log10(1e-3), np.log10(1.0), 8)
                        ),
                        "n_resamples": 5,
                    }
                },
            },
            true_skeleton=("notears-stability", tuple((f"x{i}", f"x{i + 1}") for i in range(1, 5))),
        ),
    )
}


def _seed_sequence(master: int, *tags: object) -> np.random.SeedSequence:
    """The program's seed derivation: tags hash to 32-bit words with BLAKE2s."""
    words = [master & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, int):
            words.append(tag & 0xFFFFFFFF)
        else:
            digest = hashlib.blake2s(str(tag).encode("utf-8"), digest_size=4).digest()
            words.append(int.from_bytes(digest, "big"))
    return np.random.SeedSequence(words)


def _network(w: Workload) -> list[tuple[list[int], np.ndarray]]:
    """(parent indices, P(node=1 | parent assignment)) per node, in node order."""
    d = len(w.labels)
    if w.network == "chain":
        return [([], np.array([0.5]))] + [([j - 1], np.array([0.1, 0.9])) for j in range(1, d)]
    rng = np.random.default_rng(_seed_sequence(SCENARIO_SEED, "random-preset", d))
    parents: list[list[int]] = [[] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < w.edge_prob:
                parents[j].append(i)
    return [(ps, rng.uniform(0.05, 0.95, size=1 << len(ps))) for ps in parents]


def _sample(w: Workload) -> np.ndarray:
    """The fixed sample, with one contiguous missing block per row."""
    sample_seed = int(_seed_sequence(SCENARIO_SEED, "scenario-sample").generate_state(1)[0])
    rng = np.random.default_rng(sample_seed)
    n, d = w.n_rows, len(w.labels)
    values = np.zeros((n, d), dtype=np.int8)
    # every parent precedes its child, so node order is a topological order
    for j, (parents, p1_table) in enumerate(_network(w)):
        idx = np.zeros(n, dtype=np.int64)
        for p in parents:  # first parent is the high bit
            idx = (idx << 1) | values[:, p]
        values[:, j] = rng.random(n) < p1_table[idx]
    if w.missing_rate > 0.0:
        rng = np.random.default_rng(_seed_sequence(SCENARIO_SEED, "scenario-mask"))
        p = min(1.0, 1.0 / (w.missing_rate * d))
        lengths = np.minimum(rng.geometric(p, size=n), d - 1)
        starts = rng.integers(0, d, size=n)
        cols = np.arange(d)
        block = (cols >= starts[:, None]) & (cols < (starts + lengths)[:, None])
        values[block] = MISSING
    return values


def generate(w: Workload, seed: int) -> np.ndarray:
    """The workload's reads in the row order drawn by ``seed`` (int8, -1 = missing)."""
    values = _sample(w)
    order = np.random.default_rng(_seed_sequence(seed, "perfbench-rows")).permutation(len(values))
    return values[order]


def write_csv(w: Workload, values: np.ndarray, path: Path) -> None:
    cells = TOKENS[values + 1]
    lines = [",".join(w.labels)] + [",".join(row) for row in cells]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def input_properties(values: np.ndarray) -> dict:
    """Shape, missing share and row compression of a generated input."""
    n, d = values.shape
    return {
        "rows": n,
        "columns": d,
        "missing_frac": float((values == MISSING).mean()),
        "distinct_row_frac": len(np.unique(values, axis=0)) / n,
    }
