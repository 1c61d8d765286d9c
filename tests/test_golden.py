"""Golden outputs: three small scenario runs checked against stored fingerprints.

A fingerprint (``perfbench/compare_runs.py``) is the SHA-256 of every
discrete output of a run directory plus the list of its floats in file
order.  A run matches when the discrete outputs are identical and every
float agrees to ``compare_runs.FLOAT_TOL`` relative, so a change that
moves an edge, a verdict or a float past the last few ulps fails here.

The stored fingerprints live in ``tests/golden/``.  After a change that
is meant to move outputs, rebuild them with
``PYTHONPATH=src python tests/test_golden.py [PRESET ...]`` and declare
the change.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from causalchron.pipeline import PipelineConfig, ScenarioSpec, run_pipeline

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "perfbench" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

#: preset -> (rows, the config keys that differ between scenarios); every
#: scenario runs the round-robin fill and every refutation.  The two site
#: presets run hc, pc and lingam; chain-5 runs one NOTEARS fit and a small
#: stability-selection grid (4 lambdas x 2 resamples)
SCENARIOS = {
    "ndhd-like": (1500, {"algorithms": ("hc", "pc", "lingam")}),
    "ndhb-like": (600, {"algorithms": ("hc", "pc", "lingam")}),
    "chain-5": (
        400,
        {
            "algorithms": ("notears", "notears-stability"),
            "learner_params": {"notears-stability": {"lambda_grid": (0.01, 0.03, 0.1, 0.3), "n_resamples": 2}},
        },
    ),
}


def run_fingerprint(preset: str, out: Path) -> dict:
    rows, config = SCENARIOS[preset]
    cfg = PipelineConfig(
        scenario=ScenarioSpec(preset=preset, n_rows=rows, seed=3),
        impute_method="round_robin",
        refutations="all",
        seed=5,
        output_dir=str(out),
        **config,
    )
    run_pipeline(cfg)
    return compare_runs.fingerprint(out)


@pytest.mark.parametrize("preset", SCENARIOS)
def test_run_matches_stored_fingerprint(preset, tmp_path):
    stored = json.loads((GOLDEN / f"{preset}.json").read_text(encoding="utf-8"))
    ours = run_fingerprint(preset, tmp_path / "run")
    assert compare_runs.fingerprint_differences(stored, ours) == []
    # the gate is not vacuous: one stored float moved by 1e-9 fails it
    assert stored["floats"]
    moved = dict(stored, floats=[stored["floats"][0] + 1e-9, *stored["floats"][1:]])
    assert compare_runs.fingerprint_differences(moved, ours)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            doc = run_fingerprint(name, Path(tmp) / "run")
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN / f'{name}.json'} ({len(doc['floats'])} floats)", file=sys.stderr)
