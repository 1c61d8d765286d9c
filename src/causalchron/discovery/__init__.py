"""Structure-learning algorithms and the name-based learner registry."""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, get_type_hints

from .._coerce import check_ranges, coerce
from ..bayesnet import Dag
from ..dataset import EventMatrix
from .citests import G2Result, ci_test_g2, fisher_exact
from .hc import hc_learn
from .lingam import lingam_learn
from .notears import (
    NotearsConvergenceError,
    WeightedAdjacency,
    acyclicity_h,
    notears_learn,
    threshold_to_dag,
)
from . import hc, lingam, notears, pc, stability
from .pc import PcResult, pc_learn
from .stability import StabilityReport, default_lambda_grid, stability_select

__all__ = [
    "G2Result",
    "ci_test_g2",
    "fisher_exact",
    "hc_learn",
    "pc_learn",
    "PcResult",
    "lingam_learn",
    "notears_learn",
    "acyclicity_h",
    "threshold_to_dag",
    "WeightedAdjacency",
    "NotearsConvergenceError",
    "stability_select",
    "default_lambda_grid",
    "StabilityReport",
    "get_learner",
    "LEARNER_NAMES",
]


#: name -> (learner function, the keyword parameters a config may set, how to read
#: the Dag off its result, the ranges the function checks); each function's
#: signature is the only home of its defaults, its module the only home of its ranges
_LEARNERS = {
    "hc": (hc_learn, ("max_indegree", "restarts"), lambda dag: dag, hc.PARAM_RANGES),
    "pc": (pc_learn, ("alpha",), attrgetter("dag"), pc.PARAM_RANGES),
    "lingam": (lingam_learn, ("threshold",), lambda dag: dag, lingam.PARAM_RANGES),
    "notears": (notears_learn, ("lambda1", "omega", "standardize"), itemgetter(1), notears.PARAM_RANGES),
    "notears-stability": (
        stability_select,
        ("lambda_grid", "n_resamples", "subsample_frac", "freq_threshold", "window", "omega", "standardize"),
        attrgetter("dag"),
        stability.PARAM_RANGES,
    ),
}
LEARNER_NAMES = tuple(_LEARNERS)


def get_learner(name: str, **params: object) -> Callable[[EventMatrix, int], Dag]:
    """Uniform (data, seed) -> Dag handle for any named algorithm.

    Hyperparameters are bound at lookup time, each cast to the type the
    learner function declares for it and checked against the range that
    function checks; unset ones keep that function's defaults.  An unknown
    learner or parameter, or a value out of range, raises ValueError.
    Seeds only reach the algorithms that resample or restart.
    """
    if name not in _LEARNERS:
        raise ValueError(f"unknown learner {name!r}; expected one of {LEARNER_NAMES}")
    fn, keys, to_dag, ranges = _LEARNERS[name]
    hints = get_type_hints(fn)
    bound = {}
    for key, value in params.items():
        if key not in keys:
            raise ValueError(f"learner {name!r} takes no parameter {key!r}; it takes {', '.join(keys)}")
        bound[key] = coerce(hints[key], value, f"learner {name!r} parameter {key!r}")
    check_ranges(ranges, bound, f"learner {name!r} parameter ")
    seeded = "seed" in hints

    def run(data: EventMatrix, seed: int) -> Dag:
        return to_dag(fn(data, **bound, **({"seed": seed} if seeded else {})))

    return run
