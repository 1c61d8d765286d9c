"""Structure-learning algorithms and the name-based learner registry."""

from __future__ import annotations

import inspect
from operator import attrgetter, itemgetter
from typing import Callable, get_type_hints

from .._coerce import check_ranges, coerce, declared_ranges
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


#: name -> (learner function, how to read the Dag off its result); the function's signature
#: declares its parameters and defaults, and its module's ``PARAM_RANGES`` their ranges
_LEARNERS = {
    "hc": (hc_learn, lambda dag: dag),
    "pc": (pc_learn, attrgetter("dag")),
    "lingam": (lingam_learn, lambda dag: dag),
    "notears": (notears_learn, itemgetter(1)),
    "notears-stability": (stability_select, attrgetter("dag")),
}
LEARNER_NAMES = tuple(_LEARNERS)


def get_learner(name: str, **params: object) -> Callable[[EventMatrix, int], Dag]:
    """Uniform (data, seed) -> Dag handle for any named algorithm.

    Hyperparameters are bound at lookup time: every parameter of the learner
    function after the data but ``seed``, cast to its declared type and
    checked against its module's range; unset ones keep the defaults.  An unknown
    learner or parameter, or a value out of range, raises ValueError.
    Seeds only reach the algorithms that resample or restart.
    """
    if name not in _LEARNERS:
        raise ValueError(f"unknown learner {name!r}; expected one of {LEARNER_NAMES}")
    fn, to_dag = _LEARNERS[name]
    keys = [key for key in list(inspect.signature(fn).parameters)[1:] if key != "seed"]
    hints = get_type_hints(fn)
    bound = {}
    for key, value in params.items():
        if key not in keys:
            raise ValueError(f"learner {name!r} takes no parameter {key!r}; it takes {', '.join(keys)}")
        bound[key] = coerce(hints[key], value, f"learner {name!r} parameter {key!r}")
    check_ranges(declared_ranges(fn), bound, f"learner {name!r} parameter ")

    def run(data: EventMatrix, seed: int) -> Dag:
        return to_dag(fn(data, **bound, **({"seed": seed} if "seed" in hints else {})))

    return run
