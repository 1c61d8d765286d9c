"""Per-layer tracing of one pipeline run, from outside the program.

The tracer replaces public functions of the program's modules with thin
wrappers and puts the originals back afterwards; no file of the program
changes.  Several modules bind imported functions into their own
namespace (``from .bayesnet import fit_cpts``), so a wrapper is installed
on the name its caller looks up, not only where the function is defined.

A *span* wrapper records (name, start, end, parent) per call; spans stay
in memory until the run ends.  A layer's self time is the time of its
spans minus the time of their child spans, so the self times of all
layers plus ``pipeline.self_s`` add up to the traced run.  A *counter*
wrapper only counts calls; its time stays in the enclosing span, which
keeps hot inner calls such as ``local_bic`` from splitting their caller.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

ROOT_SPAN = "pipeline"

#: (module, attribute, span name): the layers whose time is recorded
SPANS = (
    ("causalchron.pipeline", "load_reads", "dataset.load_reads"),
    ("causalchron.pipeline", "save_reads", "dataset.save_reads"),
    ("causalchron.pipeline", "em_impute", "imputation.em_impute"),
    ("causalchron.imputation", "initial_impute", "imputation.initial_impute"),
    ("causalchron.discovery", "hc_learn", "discovery.hc"),
    ("causalchron.discovery", "pc_learn", "discovery.pc"),
    ("causalchron.discovery", "lingam_learn", "discovery.lingam"),
    ("causalchron.discovery", "notears_learn", "discovery.notears"),
    ("causalchron.discovery.stability", "notears_learn", "discovery.notears"),
    ("causalchron.discovery", "stability_select", "discovery.stability"),
    ("causalchron.bayesnet.DiscreteBayesNet", "prob", "bayesnet.prob"),
    ("causalchron.causal", "query", "bayesnet.query"),
    ("causalchron.pipeline", "fit_cpts", "bayesnet.fit_cpts"),
    ("causalchron.causal", "fit_cpts", "bayesnet.fit_cpts"),
    ("causalchron.imputation", "fit_cpts", "bayesnet.fit_cpts"),
    ("causalchron.chronology", "fit_cpts", "bayesnet.fit_cpts"),
    ("causalchron.pipeline", "effects_for_dag", "causal.effects"),
    ("causalchron.causal", "refute", "causal.refute"),
    ("causalchron.pipeline", "build_chronology", "chronology.build"),
    ("causalchron.pipeline", "compare_models", "chronology.compare"),
    ("causalchron.pipeline", "falsify", "chronology.falsify"),
)

#: (module, attribute, counter name): calls counted inside their caller's span
COUNTERS = (
    ("causalchron.discovery.hc", "local_bic", "discovery.local_bic_calls"),
    ("causalchron.discovery.pc", "ci_test_g2", "discovery.pc_ci_tests"),
    ("causalchron.chronology", "ci_test_g2", "chronology.falsify_ci_tests"),
    ("scipy.optimize", "minimize", "discovery.minimize_calls"),
)


def _resolve(path: str):
    """A module, or a class named by its module path plus class name."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _on_result(tracer: "Tracer", name: str, result) -> None:
    """Counts read off a wrapped call's return value."""
    c = tracer.counts
    if name == "imputation.em_impute":
        c["imputation.em_iterations"] += result.iterations
    elif name == "causal.refute":
        c["causal.refutations_passed"] += bool(result.passed)
    elif name == "chronology.falsify":
        # every statement is looked up once for the graph and once per relabeling
        c["chronology.falsify_lookups"] += result.n_statements * (len(result.baseline) + 1)
    elif name == "discovery.minimize_calls":
        c["discovery.objective_evals"] += int(result.nfev)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        errors = _errors_counted(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            counts[name + "_calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[name + "_failures"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            _on_result(self, name, result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            _on_result(self, name, result)
            return result

        return wrapper

    def traced(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span."""
        return self._span_wrapper(ROOT_SPAN, fn)(*args, **kwargs)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for owner_path, attr, name in table:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def remove(self) -> None:
        """Restore every patched name; raise if any is not the original afterwards."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is not original
        ]
        self._patched.clear()
        if wrong:
            raise RuntimeError(f"wrappers left installed: {wrong}")

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] += (end - start) - inner
        return dict(out)

    def write_spans(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _errors_counted(name: str) -> tuple[type[BaseException], ...]:
    """Exceptions counted as a layer's failures (and re-raised) rather than as crashes."""
    if name == "discovery.notears":
        from causalchron.discovery import NotearsConvergenceError

        return (NotearsConvergenceError,)
    return ()


#: per-layer metrics: (name, unit, better), in report order
LAYER_METRICS = (
    ("dataset.load_reads_s", "s", "lower"),
    ("dataset.save_reads_s", "s", "lower"),
    ("dataset.distinct_row_frac", "fraction", "lower"),
    ("imputation.initial_impute_s", "s", "lower"),
    ("imputation.em_impute_s", "s", "lower"),
    ("imputation.em_iterations", "count", "lower"),
    ("discovery.hc_s", "s", "lower"),
    ("discovery.local_bic_calls", "count", "lower"),
    ("discovery.pc_s", "s", "lower"),
    ("discovery.pc_ci_tests", "count", "lower"),
    ("discovery.lingam_s", "s", "lower"),
    ("discovery.notears_s", "s", "lower"),
    ("discovery.notears_fits", "count", "lower"),
    ("discovery.notears_failures", "count", "lower"),
    ("discovery.notears_fit_ok_frac", "fraction", "higher"),
    ("discovery.minimize_calls", "count", "lower"),
    ("discovery.objective_evals", "count", "lower"),
    ("discovery.stability_s", "s", "lower"),
    ("bayesnet.prob_calls", "count", "lower"),
    ("bayesnet.prob_s", "s", "lower"),
    ("bayesnet.query_calls", "count", "lower"),
    ("bayesnet.query_s", "s", "lower"),
    ("bayesnet.fit_cpts_calls", "count", "lower"),
    ("bayesnet.fit_cpts_s", "s", "lower"),
    ("causal.effects_s", "s", "lower"),
    ("causal.refute_s", "s", "lower"),
    ("causal.refute_calls", "count", "lower"),
    ("causal.refutations_passed", "count", "higher"),
    ("chronology.build_s", "s", "lower"),
    ("chronology.compare_s", "s", "lower"),
    ("chronology.falsify_s", "s", "lower"),
    ("chronology.falsify_ci_tests", "count", "lower"),
    ("chronology.falsify_cache_hit_frac", "fraction", "higher"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.covered_frac", "fraction", "higher"),
    ("tracer.overhead_s", "s", "lower"),
)


def layer_values(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """(self times and ratios, exact counts) of one traced run."""
    self_s = tracer.self_times()
    c = tracer.counts
    times = {f"{name}_s": self_s.get(name, 0.0) for name in sorted({span for _, _, span in SPANS})}
    times["pipeline.self_s"] = self_s[ROOT_SPAN]
    times["pipeline.covered_frac"] = 1.0 - self_s[ROOT_SPAN] / sum(self_s.values())
    fits = c["discovery.notears_calls"]
    times["discovery.notears_fit_ok_frac"] = (
        (fits - c["discovery.notears_failures"]) / fits if fits else 1.0
    )
    lookups = c["chronology.falsify_lookups"]
    times["chronology.falsify_cache_hit_frac"] = (
        1.0 - c["chronology.falsify_ci_tests"] / lookups if lookups else 0.0
    )
    counts = {
        "imputation.em_iterations": c["imputation.em_iterations"],
        "discovery.local_bic_calls": c["discovery.local_bic_calls"],
        "discovery.pc_ci_tests": c["discovery.pc_ci_tests"],
        "discovery.notears_fits": fits,
        "discovery.notears_failures": c["discovery.notears_failures"],
        "discovery.minimize_calls": c["discovery.minimize_calls"],
        "discovery.objective_evals": c["discovery.objective_evals"],
        "bayesnet.prob_calls": c["bayesnet.prob_calls"],
        "bayesnet.query_calls": c["bayesnet.query_calls"],
        "bayesnet.fit_cpts_calls": c["bayesnet.fit_cpts_calls"],
        "causal.refute_calls": c["causal.refute_calls"],
        "causal.refutations_passed": c["causal.refutations_passed"],
        "chronology.falsify_ci_tests": c["chronology.falsify_ci_tests"],
    }
    return times, counts
