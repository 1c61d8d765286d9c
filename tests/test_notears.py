import itertools
import math
import sys
import warnings
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from causalchron import _scipy_kernels
from causalchron._rng import spawn_seed
from causalchron.bayesnet import cycle_edges, sample
from causalchron.dataset import EventMatrix
from causalchron.discovery import (
    NotearsConvergenceError,
    WeightedAdjacency,
    acyclicity_h,
    default_lambda_grid,
    notears,
    notears_learn,
    stability,
    stability_select,
    threshold_to_dag,
)
from causalchron.pipeline import ScenarioSpec, preset_network, simulate

from conftest import fresh_python, random_network

UNIT_2CYCLE_H = math.e + math.exp(-1) - 2  # eigenvalues of W*W are +-1


def finite_difference_gradient(w, step=1e-5):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up = w.copy()
            up[i, j] += step
            down = w.copy()
            down[i, j] -= step
            grad[i, j] = (acyclicity_h(up)[0] - acyclicity_h(down)[0]) / (2 * step)
    return grad


class TestAcyclicityH:
    def test_zero_matrix(self):
        value, grad = acyclicity_h(np.zeros((4, 4)))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_strictly_triangular_is_acyclic(self):
        w = np.triu(np.ones((5, 5)), k=1) * 0.7
        value, _ = acyclicity_h(w)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_unit_two_cycle_closed_form(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        value, _ = acyclicity_h(w)
        assert value == pytest.approx(UNIT_2CYCLE_H, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(-1, 1, size=(5, 5))
            np.fill_diagonal(w, 0.0)
            _, grad = acyclicity_h(w)
            assert np.abs(grad - finite_difference_gradient(w)).max() < 1e-6

    def test_nonnegative_and_zero_iff_acyclic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            w = rng.uniform(-1, 1, size=(d, d)) * (rng.random((d, d)) < 0.4)
            np.fill_diagonal(w, 0.0)
            value, _ = acyclicity_h(w)
            assert value >= -1e-12
            labels = tuple(f"v{i}" for i in range(d))
            try:
                from causalchron.bayesnet import Dag

                Dag(labels, [(labels[i], labels[j]) for i in range(d) for j in range(d) if w[i, j] != 0])
                acyclic = True
            except ValueError:
                acyclic = False
            assert (value < 1e-8) == acyclic

    def test_rejects_nonfinite(self):
        for bad in (np.inf, -np.inf, np.nan):
            w = np.zeros((2, 2))
            w[0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                acyclicity_h(w)

    def test_h_is_float_for_one_matrix_and_an_array_for_a_stack(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        h, _ = acyclicity_h(w)
        stacked, grads = acyclicity_h(np.stack([w, 0 * w, w]))
        assert type(h) is float
        assert stacked.shape == (3,) and grads.shape == (3, 2, 2)
        assert stacked.tolist() == [h, 0.0, h]

    def test_overflow_warns_outside_the_objective(self):
        w = np.full((3, 3), 30.0)
        np.fill_diagonal(w, 0.0)
        with pytest.warns(RuntimeWarning) as caught:
            acyclicity_h(w)
        assert any("overflow" in str(warning.message) for warning in caught)


def _slice(rng, kind, d, scale):
    """One (d, d) test slice: zero, diagonal, lower or upper triangular
    (diagonal included), or generic, with entries of size ``scale``."""
    a = rng.normal(size=(d, d)) * scale
    return {
        "zero": 0.0 * a,
        "diagonal": np.diag(np.diag(a)),
        "lower": np.tril(a),
        "upper": np.triu(a),
        "generic": a,
    }[kind]


def _scaling_power(a):
    """The s of Al-Mohy & Higham's scaling and squaring for one slice."""
    return _scipy_kernels._pade.pick_pade_structure(np.stack([a] + 4 * [np.zeros_like(a)]))[1]


class TestExpm:
    """``_scipy_kernels.expm`` must return the bytes of ``scipy.linalg.expm``
    on every slice, alone and in a (K, d, d) stack."""

    KINDS = ("zero", "diagonal", "lower", "upper", "generic")

    @staticmethod
    def assert_same_bytes(a):
        with np.errstate(over="ignore", invalid="ignore"):
            ours, theirs = _scipy_kernels.expm(a), scipy.linalg.expm(a)
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_every_kind_of_slice(self, d):
        rng = np.random.default_rng(d)
        scales = (0.1, 1.0, 100.0, 1000.0)
        slices = {(kind, scale): _slice(rng, kind, d, scale) for kind in self.KINDS for scale in scales}
        overflow = [(np.abs(_slice(rng, "generic", d, 1.0)) + 1.0) * 800.0, np.diag(np.full(d, 800.0))]
        stack = np.stack([*slices.values(), *overflow])  # exp(800) > DBL_MAX
        self.assert_same_bytes(stack)
        for a in stack:
            self.assert_same_bytes(a)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_scipy_kernels.expm(np.stack(overflow))).all(axis=(-2, -1)).any()
        if d > 1:  # both triangular squarings (Code Fragment 2.1) and a long generic one ran
            assert _scaling_power(slices["lower", 1000.0]) >= 5 and _scaling_power(slices["upper", 1000.0]) >= 5
            assert _scaling_power(slices["generic", 1000.0]) >= 5

    @pytest.mark.parametrize("d", [2, 5])
    def test_all_general_stack(self, d):
        """A stack whose every slice has entries below and above the diagonal,
        as NOTEARS's W o W does once W leaves 0, goes straight through the
        Padé kernels; through a long squaring and an overflow its bytes stay
        scipy's, and no result shares memory with another call's."""
        rng = np.random.default_rng(10 + d)
        stack = np.stack(
            [_slice(rng, "generic", d, scale) for scale in (1e-3, 0.1, 1.0, 100.0, 1000.0)]
            + [(np.abs(_slice(rng, "generic", d, 1.0)) + 1.0) * 800.0]  # exp(800) > DBL_MAX
        )
        nonzero = (stack.reshape(len(stack), d * d) != 0) @ _scipy_kernels._off_diagonal(d)
        assert nonzero.all()
        assert _scaling_power(stack[-2]) >= 5
        self.assert_same_bytes(stack)
        for a in stack:
            self.assert_same_bytes(a)
        with np.errstate(over="ignore", invalid="ignore"):
            first, one = _scipy_kernels.expm(stack), _scipy_kernels.expm(stack[2])
            kept = first.tobytes(), one.tobytes()
            again, twice = _scipy_kernels.expm(stack), _scipy_kernels.expm(stack[2])
        assert not np.isfinite(first[-1]).all()
        assert (first.tobytes(), one.tobytes()) == kept == (again.tobytes(), twice.tobytes())
        results = (first, one, again, twice)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(results, 2))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 7),
        slices=st.lists(st.tuples(st.sampled_from(KINDS), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
    )
    def test_random_stacks(self, seed, d, slices):
        """Scales 1e-3 to 1e3 take s from 0 past 5, and the largest overflow."""
        rng = np.random.default_rng(seed)
        stack = np.stack([_slice(rng, kind, d, 10.0**exponent) for kind, exponent in slices])
        self.assert_same_bytes(stack)
        for a in stack:
            self.assert_same_bytes(a)


class TestKernelLoader:
    def test_a_kernel_scipy_lacks_raises_import_error_naming_it(self):
        for package, name in (("linalg", "_no_such_kernel"), ("no_such_package", "_lbfgsb")):
            with pytest.raises(ImportError, match=rf"scipy\.{package}\.{name}") as err:
                _scipy_kernels.load_kernel(package, name)
            assert err.value.name == f"scipy.{package}.{name}"
        # the stand-in package replaces the loaded scipy.linalg only while the load runs
        assert sys.modules["scipy.linalg"] is scipy.linalg and "scipy.no_such_package" not in sys.modules
        # in a process without scipy.special, a stand-in left in sys.modules
        # would break every later import of the real package
        out = fresh_python("""if True:
            import json, sys
            from causalchron import _scipy_kernels
            try:
                _scipy_kernels.load_kernel("special", "_no_such_kernel")
            except ImportError as err:
                raised = [err.name, str(err)]
            left = sorted(name for name in sys.modules if name.startswith("scipy.special"))
            import scipy.special
            print(json.dumps([raised, left, hasattr(scipy.special, "chdtrc")]))
        """)
        (name, message), left, package_works = out
        assert name == "scipy.special._no_such_kernel" and name in message
        assert left == [] and package_works


class TestThresholding:
    def test_omega_raised_until_acyclic(self):
        w = np.array(
            [
                [0.0, 0.9, 0.0],
                [0.35, 0.0, 0.8],
                [0.0, 0.0, 0.0],
            ]
        )
        adj = WeightedAdjacency(("a", "b", "c"), w)
        dag, effective = threshold_to_dag(adj, omega=0.3)
        # 0.3 keeps the 2-cycle a<->b; the threshold must climb past 0.35
        assert dag.edges == frozenset({("a", "b"), ("b", "c")})
        assert effective > 0.35

    def test_plain_threshold(self):
        w = np.array([[0.0, 0.5], [0.0, 0.0]])
        adj = WeightedAdjacency(("a", "b"), w)
        dag, effective = threshold_to_dag(adj, omega=0.3)
        assert dag.edges == frozenset({("a", "b")})
        assert effective == 0.3

    def test_weighted_adjacency_invariants(self):
        with pytest.raises(ValueError, match="diagonal"):
            WeightedAdjacency(("a", "b"), np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            WeightedAdjacency(("a", "b"), np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestNotearsLearn:
    def test_chain_skeleton(self):
        data = sample(preset_network("chain-5"), 5000, seed=1)
        adj, dag = notears_learn(data)
        want = {frozenset(p) for p in [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")]}
        assert dag.skeleton() == want
        h, _ = acyclicity_h(adj.w)
        assert h <= 1e-8

    def test_deterministic(self):
        data = sample(preset_network("chain-4"), 1000, seed=2)
        a, dag_a = notears_learn(data)
        b, dag_b = notears_learn(data)
        assert np.array_equal(a.w, b.w)
        assert dag_a == dag_b

    def test_strong_lambda_empties_graph(self):
        data = sample(preset_network("chain-4"), 1000, seed=3)
        _, dag = notears_learn(data, lambda1=5.0)
        assert dag.edges == frozenset()

    def test_requires_complete(self):
        m = EventMatrix(("a", "b"), np.array([[1, -1], [0, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="complete"):
            notears_learn(m)

    def test_convergence_failure_reports_final_h(self, monkeypatch):
        from causalchron.discovery import NotearsConvergenceError

        data = sample(preset_network("chain-4"), 500, seed=10)
        # a penalty cap below the starting penalty cannot enforce acyclicity
        monkeypatch.setattr(notears, "RHO_MAX", 1.0)
        monkeypatch.setattr(notears, "H_TOL", 1e-300)
        with pytest.raises(NotearsConvergenceError) as err:
            notears_learn(data, lambda1=1e-6)
        assert err.value.h_final >= 0.0


def textbook_objective(data, lambda1):
    """The NOTEARS objective as first written: fresh arrays on every call.
    Returns f, g and h, as the production objective does."""
    x = data.values.astype(np.float64)
    x = x - x.mean(axis=0)
    n, d = x.shape
    gram = x.T @ x / n

    def objective(vec, rho, alpha):
        w = (vec[: d * d] - vec[d * d :]).reshape(d, d)
        delta = w - np.eye(d)
        loss = 0.5 * float(np.trace(delta.T @ gram @ delta))
        g_loss = gram @ delta
        e = scipy.linalg.expm(w * w)
        h, g_h = float(np.trace(e) - d), e.T * (2.0 * w)
        smooth = loss + 0.5 * rho * h * h + alpha * h
        g_smooth = g_loss + (rho * h + alpha) * g_h
        value = smooth + lambda1 * float(vec.sum())
        grad = np.concatenate([(g_smooth + lambda1).ravel(), (-g_smooth + lambda1).ravel()])
        return value, grad, h

    return objective


def stacked(objective):
    """A one-problem ``objective(vec, rho, alpha)`` in the stacked objective's
    place: it answers every slice of a call on its own."""

    def answer(grams, lambdas, vecs, rhos, alphas):
        f, g, h = zip(*(objective(vec, rho, alpha) for vec, rho, alpha in zip(vecs, rhos, alphas)))
        return np.array(f), np.array(g), np.array(h)

    return answer


def counted_steps(record):
    """``_lbfgsb_steps`` that calls ``record(nfev)`` at the end of each inner solve."""
    steps = notears._lbfgsb_steps

    def counted(*problem):
        result = yield from steps(*problem)
        record(result[2])
        return result

    return counted


class TestObjectiveBitIdentity:
    """The production objective must return the textbook floats bit for bit, so
    L-BFGS-B walks the same path: same iterates, same evaluations, same W."""

    @staticmethod
    def fit(data, lambda1, objective=None):
        """notears_learn's W bytes and DAG (or its failure) and each inner solve's
        ``nfev``; ``objective(vec, rho, alpha)`` replaces the production one."""
        nfevs = []
        replaced = notears._objective if objective is None else stacked(objective)
        with mock.patch.object(notears, "_lbfgsb_steps", counted_steps(nfevs.append)), mock.patch.object(
            notears, "_objective", replaced
        ):
            try:
                adj, dag = notears_learn(data, lambda1=lambda1)
            except NotearsConvergenceError as err:
                return (err.h_final, err.rho), nfevs
        return (adj.w.tobytes(), dag), nfevs

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(30, 400))
    def test_same_w_and_evaluations_as_textbook_objective(self, seed, d, n):
        rng = np.random.default_rng(seed)
        data = sample(random_network(rng, d), n, seed=seed)
        for lambda1 in (0.0, 0.02, 0.1):
            outcome, nfevs = self.fit(data, lambda1)
            outcome_ref, nfevs_ref = self.fit(data, lambda1, textbook_objective(data, lambda1))
            assert outcome == outcome_ref
            assert nfevs and nfevs == nfevs_ref


class TestLbfgsbDriver:
    """The L-BFGS-B driver must walk the path of ``scipy.optimize.minimize``
    bit for bit on every inner solve of a fit; this breaks first if a scipy
    release changes the ``setulb`` kernel or the loop around it.  The h a
    solve returns must be the h of its final x."""

    @staticmethod
    def inner_statuses(data, lambda1, maxiter):
        """Fit with every inner solve checked against scipy; their statuses."""
        d = data.n_cols
        is_diag = np.eye(d, dtype=bool).ravel()
        bounds = [(0.0, 0.0) if flag else (0.0, None) for flag in np.tile(is_diag, 2)]
        gram = notears.gram_matrix(data.values, False)
        steps = notears._lbfgsb_steps
        statuses = []

        def fun(x, rho, alpha):
            f, g, _ = notears._objective(gram[None], np.array([lambda1]), x[None], np.array([rho]), np.array([alpha]))
            return f[0], g[0]

        def compared(x0, args, *bounds_and_cap):
            result = yield from steps(x0, args, *bounds_and_cap)
            x, f, nfev, nit, status, h = result
            if h is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    h_ref = acyclicity_h(notears._unpack(x, d))[0]
                assert np.float64(h).tobytes() == np.float64(h_ref).tobytes()
            res = scipy.optimize.minimize(
                fun,
                x0,
                args=args,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": maxiter},
            )
            assert x.tobytes() == res.x.tobytes()
            assert np.float64(f).tobytes() == np.float64(res.fun).tobytes()
            assert (nfev, nit, status) == (res.nfev, res.nit, res.status)
            statuses.append(status)
            return result

        with mock.patch.object(notears, "_lbfgsb_steps", compared), mock.patch.object(
            notears, "LBFGS_MAXITER", maxiter
        ):
            try:
                notears_learn(data, lambda1=lambda1)
            except NotearsConvergenceError:
                pass
        return statuses

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        n=st.integers(30, 2000),
        lambda1=st.sampled_from([0.0, 1e-3, 0.02, 0.1, 0.5]),
        maxiter=st.sampled_from([2, 1000]),
    )
    def test_same_path_as_scipy_minimize(self, seed, d, n, lambda1, maxiter):
        data = sample(random_network(np.random.default_rng(seed), d), n, seed=seed)
        assert self.inner_statuses(data, lambda1, maxiter)

    def test_same_stop_as_scipy_at_the_iteration_cap(self):
        data = sample(preset_network("chain-4"), 300, seed=5)
        assert 1 in self.inner_statuses(data, 0.02, maxiter=2)


def nan_steps(x0, *rest):
    """An inner solve that ends at a NaN objective without asking for a point."""
    yield from ()
    return x0, np.nan, 1, 0, 2, np.nan


def overflow_steps(x0, *rest):
    """An inner solve that ends, away from its last evaluated point, at
    W[0, 1] = W[1, 0] = 30 (d = 3), where exp(W o W) overflows, so h is not
    finite."""
    yield from ()
    x = np.zeros_like(x0)
    x[[1, 3]] = 30.0
    return x, 0.0, 1, 1, 0, None


class TestNonFiniteSolve:
    """Every comparison with NaN is False, so a non-finite inner solve must
    fail the fit rather than slip past the convergence tests."""

    def test_nonfinite_objective_fails_the_fit(self):
        data = sample(preset_network("chain-3"), 200, seed=0)
        with mock.patch.object(notears, "_lbfgsb_steps", side_effect=nan_steps) as solve:
            with pytest.raises(NotearsConvergenceError) as err:
                notears_learn(data)
        assert math.isnan(err.value.h_final)
        assert solve.call_count == 1  # no NaN reached alpha or a further solve

    def test_nonfinite_h_fails_the_fit(self):
        data = sample(preset_network("chain-3"), 200, seed=0)
        with mock.patch.object(notears, "_lbfgsb_steps", side_effect=overflow_steps) as solve:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NotearsConvergenceError) as err:
                    notears_learn(data)
        assert not math.isfinite(err.value.h_final)
        assert solve.call_count == 1

    def test_objective_overflow_is_silent(self):
        """A line-search probe at W[0, 1] = W[1, 0] = 30 overflows expm: f is
        not finite, and neither a one-problem stack nor a larger one warns
        about it."""
        gram = notears.gram_matrix(sample(preset_network("chain-3"), 200, seed=0).values, False)
        vec = np.zeros(18)
        vec[[1, 3]] = 30.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one, _, _ = notears._objective(gram[None], np.array([0.1]), vec[None], np.ones(1), np.zeros(1))
            two, _, _ = notears._objective(
                np.stack([gram, gram]), np.array([0.1, 0.1]), np.stack([vec, 0 * vec]), np.ones(2), np.zeros(2)
            )
        assert not np.isfinite(one[0])
        assert not np.isfinite(two[0]) and np.isfinite(two[1])

    def test_stability_counts_nonfinite_solves_as_failures(self):
        data = sample(preset_network("chain-3"), 200, seed=0)
        with mock.patch.object(notears, "_lbfgsb_steps", nan_steps):
            report = stability_select(data, lambda_grid=(0.05, 0.1), n_resamples=2, seed=0)
        assert report.failures == 4
        assert report.stable_edges == frozenset()


class TestStabilitySelection:
    def test_learners_check_the_ranges_get_learner_checks(self):
        data = sample(preset_network("chain-3"), 60, seed=0)
        for kwargs in (
            {"subsample_frac": 1.5},
            {"subsample_frac": 0.0},
            {"lambda_grid": ()},
            {"lambda_grid": (-1.0,)},
            {"lambda_grid": (0.5, 0.1)},
            {"n_resamples": 0},
            {"window": 0},
            {"window": -3},
            {"freq_threshold": -1.0},
            {"freq_threshold": 0.0},
            {"freq_threshold": 1.5},
            {"omega": -1.0},
        ):
            (key,) = kwargs
            with pytest.raises(ValueError, match=f"'{key}' must be"):
                stability_select(data, **kwargs)
        for kwargs in ({"lambda1": -1.0}, {"omega": -1.0}):
            (key,) = kwargs
            with pytest.raises(ValueError, match=f"'{key}' must be non-negative"):
                notears_learn(data, **kwargs)

    def test_single_cell_degenerates_to_plain_fit(self):
        data = sample(preset_network("chain-4"), 1500, seed=4)
        report = stability_select(
            data, lambda_grid=(0.05,), n_resamples=1, subsample_frac=1.0, seed=0
        )
        _, plain = notears_learn(data, lambda1=0.05)
        assert report.stable_edges == plain.edges
        assert report.dag.edges == plain.edges

    def test_independent_columns_nothing_stable(self):
        from causalchron.bayesnet import Cpt, Dag, DiscreteBayesNet

        labels = tuple(f"x{i}" for i in range(1, 6))
        net = DiscreteBayesNet(
            Dag(labels, []), tuple(Cpt(n, (), np.array([0.5])) for n in labels)
        )
        data = sample(net, 2000, seed=5)
        report = stability_select(
            data, lambda_grid=default_lambda_grid(1e-3, 1.0, 6), n_resamples=8, seed=0
        )
        assert report.stable_edges == frozenset()

    def test_chain_recovers_skeleton(self):
        data = sample(preset_network("chain-5"), 2000, seed=6)
        report = stability_select(
            data, lambda_grid=default_lambda_grid(1e-3, 1.0, 8), n_resamples=10, seed=0
        )
        pairs = {frozenset(e) for e in report.stable_edges}
        want = {frozenset(p) for p in [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")]}
        assert pairs == want
        assert len(report.stable_edges) == 4

    def test_dense_end_excluded(self):
        data = sample(preset_network("chain-4"), 800, seed=7)
        report = stability_select(
            data, lambda_grid=default_lambda_grid(1e-3, 1.0, 6), n_resamples=4, seed=1
        )
        assert 0 not in report.valid_lambda_indices

    def test_cycle_in_stable_union_drops_weakest_edge(self, monkeypatch):
        # ten acyclic fits whose stable union is the 3-cycle a -> b -> c -> a,
        # with peak frequencies a->b 0.9, c->a 0.6, b->c 0.5
        from causalchron.bayesnet import Dag

        labels = ("a", "b", "c")
        fits = [[("b", "c"), ("c", "a")]]
        fits += [[("a", "b"), ("c", "a")]] * 5
        fits += [[("a", "b"), ("b", "c")]] * 4
        monkeypatch.setattr(
            stability,
            "notears_lockstep",
            lambda labels, grams, lambdas, omega: [(None, Dag(labels, edges)) for edges in fits],
        )
        data = EventMatrix(labels, np.zeros((20, 3), dtype=np.int8))
        report = stability.stability_select(
            data, lambda_grid=(0.1,), n_resamples=10, freq_threshold=0.5, seed=0
        )
        assert report.stable_edges == {("a", "b"), ("b", "c"), ("c", "a")}
        assert report.edge_frequencies[("a", "b")] == (0.9,)
        assert report.edge_frequencies[("c", "a")] == (0.6,)
        assert report.edge_frequencies[("b", "c")] == (0.5,)
        assert report.dag.edges == {("a", "b"), ("c", "a")}

    def test_cycle_repair_keeps_the_edges_on_no_cycle(self):
        # the stable set holds the 2-cycle x2 <-> x3 and x2 -> x1, x3 -> x4,
        # which lie on no cycle; x2 -> x1 has the lowest peak frequency
        data, _ = simulate(ScenarioSpec("chain-4", n_rows=400, seed=6))
        report = stability_select(
            data, lambda_grid=(0.01, 0.03, 0.1), n_resamples=4, freq_threshold=0.25, window=1, seed=6
        )
        assert report.stable_edges == {("x2", "x1"), ("x2", "x3"), ("x3", "x2"), ("x3", "x4")}
        assert report.dag.edges == {("x2", "x1"), ("x3", "x2"), ("x3", "x4")}

    def test_deterministic_given_seed(self):
        data = sample(preset_network("chain-4"), 800, seed=8)
        kwargs = dict(lambda_grid=default_lambda_grid(1e-2, 0.5, 4), n_resamples=5, seed=3)
        a = stability_select(data, **kwargs)
        b = stability_select(data, **kwargs)
        assert a.stable_edges == b.stable_edges
        assert a.edge_frequencies == b.edge_frequencies

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 5),
        n_grid=st.integers(1, 6),
        n_resamples=st.integers(1, 5),
        freq_threshold=st.sampled_from([0.2, 0.5, 0.6, 1.0]),
        window=st.integers(1, 4),
    )
    def test_selection_array_matches_the_per_edge_loops(self, seed, d, n_grid, n_resamples, freq_threshold, window):
        """Random fits and failures, each DAG in its own node order, so the
        stable union can hold cycles: the report equals the per-edge loops'
        down to the frequency floats."""
        from causalchron.bayesnet import Dag

        rng = np.random.default_rng(seed)
        labels = tuple(f"x{i}" for i in range(d))
        density = rng.uniform(0.0, 1.0)
        fits = []
        for _ in range(n_grid * n_resamples):
            if rng.random() < 0.2:
                fits.append(NotearsConvergenceError(np.nan, 1.0))
                continue
            order = rng.permutation(labels)
            edges = [(order[i], order[j]) for i in range(d) for j in range(i + 1, d) if rng.random() < density]
            fits.append((None, Dag(labels, edges)))
        grid = tuple(sorted(rng.uniform(0.01, 1.0, size=n_grid)))
        data = EventMatrix(labels, np.zeros((20, d), dtype=np.int8))
        with mock.patch.object(stability, "notears_lockstep", lambda *problem: fits):
            report = stability_select(
                data, lambda_grid=grid, n_resamples=n_resamples, freq_threshold=freq_threshold, window=window
            )
        reference = reference_stability_report(labels, grid, n_resamples, fits, freq_threshold, window)
        assert report == reference
        assert report.stable_edges - cycle_edges(report.stable_edges) <= report.dag.edges
        assert {pair: [f.hex() for f in freqs] for pair, freqs in report.edge_frequencies.items()} == {
            pair: [f.hex() for f in freqs] for pair, freqs in reference.edge_frequencies.items()
        }


def reference_stability_report(labels, grid, n_resamples, fits, freq_threshold, window):
    """Stability selection's reduction as per-edge loops over frequency dicts,
    which the selection array replaced; ``fits`` in cell order."""
    from causalchron.bayesnet import Dag

    pairs = [(p, c) for p in labels for c in labels if p != c]
    counts = {pair: np.zeros(len(grid)) for pair in pairs}
    attempts = np.zeros(len(grid))
    edge_totals = np.zeros(len(grid))
    failures = 0
    cells = [(li, ri) for li in range(len(grid)) for ri in range(n_resamples)]
    for (li, _), fit in zip(cells, fits):
        if isinstance(fit, NotearsConvergenceError):
            failures += 1
            continue
        attempts[li] += 1
        edge_totals[li] += len(fit[1].edges)
        for e in fit[1].edges:
            counts[e][li] += 1
    with np.errstate(invalid="ignore"):
        freq_matrix = {
            pair: np.where(attempts > 0, cnt / np.maximum(attempts, 1), 0.0) for pair, cnt in counts.items()
        }
    mean_edges = np.where(attempts > 0, edge_totals / np.maximum(attempts, 1), 0.0)
    valid = [i for i in range(len(grid)) if (i > 0 or len(grid) == 1) and mean_edges[i] > 0 and attempts[i] > 0]
    eff_window = min(window, len(valid)) if valid else window
    stable = set()
    for pair in pairs:
        run = 0
        for i in range(len(grid)):
            if i in valid and freq_matrix[pair][i] >= freq_threshold:
                run += 1
                if run >= eff_window:
                    stable.add(pair)
                    break
            else:
                run = 0

    def peak(pair):
        return max((freq_matrix[pair][i] for i in valid), default=0.0)

    kept = set(stable)
    while in_cycle := cycle_edges(kept):
        kept.remove(min(in_cycle, key=lambda e: (peak(e), e)))
    return stability.StabilityReport(
        lambda_grid=grid,
        edge_frequencies={pair: tuple(freq_matrix[pair]) for pair in pairs},
        stable_edges=frozenset(stable),
        dag=Dag(labels, kept),
        failures=failures,
        valid_lambda_indices=tuple(valid),
    )


def log_evaluations(monkeypatch):
    """Patch the objective to log every point it evaluates, per problem: the
    problem is keyed by its Gram matrix bytes and lambda, the point logged as
    (x bytes, rho, alpha)."""
    log = defaultdict(list)
    objective = notears._objective

    def logged(gram, lambda1, vec, rho, alpha):
        for g, x, lam, r, a in zip(gram, vec, lambda1, rho, alpha):
            log[g.tobytes(), float(lam)].append((x.tobytes(), float(r), float(a)))
        return objective(gram, lambda1, vec, rho, alpha)

    monkeypatch.setattr(notears, "_objective", logged)
    return log


def outcome(fit):
    """A fit's W bytes, or the bytes of its failure's final h and rho."""
    if isinstance(fit, NotearsConvergenceError):
        return np.float64(fit.h_final).tobytes(), np.float64(fit.rho).tobytes()
    return fit[0].w.tobytes()


def solve_nfevs(evaluations):
    """Each inner solve's ``nfev`` from one problem's logged evaluations: a
    solve is a run of evaluations at one (rho, alpha)."""
    return [len(list(run)) for _, run in itertools.groupby(evaluations, key=lambda e: e[1:])]


class TestLockstep:
    """Stability selection solves all its cells together; each cell must take
    the path of its own notears_learn fit bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        k=st.integers(1, 6),
    )
    def test_stacked_objective_is_the_textbook_objective_in_every_slice(self, seed, d, k):
        rng = np.random.default_rng(seed)
        data = [sample(random_network(rng, d), int(rng.integers(30, 300)), seed=seed + i) for i in range(k)]
        lambdas = rng.choice([0.0, 1e-3, 0.02, 0.1, 0.5], size=k)
        rhos = 10.0 ** rng.integers(0, 17, size=k)
        alphas = rng.choice([0.0, 1.0], size=k) * rng.uniform(0, 50, size=k)
        vecs = rng.uniform(0, 0.8, size=(k, 2 * d * d)) * (rng.random((k, 2 * d * d)) < 0.4)
        vecs[:, np.tile(np.eye(d, dtype=bool).ravel(), 2)] = 0.0
        grams = np.array([notears.gram_matrix(m.values, False) for m in data])
        f, g, h = notears._objective(grams, lambdas, vecs, rhos, alphas)
        for i in range(k):
            f_ref, g_ref, h_ref = textbook_objective(data[i], lambdas[i])(vecs[i], rhos[i], alphas[i])
            assert np.float64(f[i]).tobytes() == np.float64(f_ref).tobytes()
            assert g[i].tobytes() == g_ref.tobytes()
            assert np.float64(h[i]).tobytes() == np.float64(h_ref).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 7),
        k=st.integers(1, 6),
        scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
        density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    )
    def test_objective_h_is_acyclicity_h_of_every_slice(self, seed, d, k, scale, density):
        """The h a solve takes from the objective instead of calling
        acyclicity_h: equal by bytes, alone or in a stack, for sparse, dense
        and triangular W."""
        rng = np.random.default_rng(seed)
        vecs = rng.uniform(0, scale, size=(k, 2 * d * d)) * (rng.random((k, 2 * d * d)) < density)
        vecs[:, np.tile(np.eye(d, dtype=bool).ravel(), 2)] = 0.0
        grams = np.stack([np.eye(d)] * k)
        lambdas, rhos, alphas = rng.uniform(0, 0.5, size=k), 10.0 ** rng.integers(0, 17, size=k), np.zeros(k)
        _, _, h = notears._objective(grams, lambdas, vecs, rhos, alphas)
        for i in range(k):
            h_ref = acyclicity_h(notears._unpack(vecs[i], d))[0]
            one = slice(i, i + 1)
            _, _, h_one = notears._objective(grams[one], lambdas[one], vecs[one], rhos[one], alphas[one])
            assert np.float64(h[i]).tobytes() == np.float64(h_ref).tobytes() == h_one.tobytes()

    @staticmethod
    def subsamples(data, lambda_grid, n_resamples, seed, subsample_frac=0.8):
        """Each cell's (lambda, subsample), drawn as stability_select draws them."""
        size = int(np.ceil(subsample_frac * data.n_rows))
        for li, lam in enumerate(lambda_grid):
            for ri in range(n_resamples):
                rows = np.random.default_rng(spawn_seed(seed, "stability", li, ri)).choice(
                    data.n_rows, size=size, replace=False
                )
                yield lam, EventMatrix(data.columns, data.values[np.sort(rows)])

    @pytest.mark.parametrize("rho_max", [1e16, 1e3])
    def test_report_and_every_fit_match_per_cell_notears_learn(self, monkeypatch, rho_max):
        # at a penalty cap of 1e3 the dense cells fail and the sparse ones converge
        monkeypatch.setattr(notears, "RHO_MAX", rho_max)
        data = sample(preset_network("chain-4"), 300, seed=12)
        kwargs = dict(lambda_grid=default_lambda_grid(1e-3, 0.5, 4), n_resamples=3, seed=5)
        cells = list(self.subsamples(data, **kwargs))
        log = log_evaluations(monkeypatch)
        lockstep = stability.notears_lockstep
        fits = {}

        def captured(name, fit):
            def run(labels, grams, lambdas, omega):
                fits[name] = fit(labels, grams, lambdas, omega)
                return fits[name]

            return run

        keys, per_solve = [], []  # each cell's problem key and per-solve nfevs, in cell order

        def per_cell(labels, grams, lambdas, omega):
            out = []
            for (lam, sub), gram in zip(cells, grams):
                assert notears.gram_matrix(sub.values, False).tobytes() == gram.tobytes()
                keys.append((gram.tobytes(), lam))
                per_solve.append([])
                try:
                    out.append(notears_learn(sub, lambda1=lam, omega=omega))
                except NotearsConvergenceError as err:
                    out.append(err)
            return out

        monkeypatch.setattr(stability, "notears_lockstep", captured("lockstep", lockstep))
        report = stability_select(data, **kwargs)
        evaluations = dict(log)
        log.clear()
        monkeypatch.setattr(notears, "_lbfgsb_steps", counted_steps(lambda nfev: per_solve[-1].append(nfev)))
        monkeypatch.setattr(stability, "notears_lockstep", captured("per cell", per_cell))
        reference = stability_select(data, **kwargs)

        assert report == reference
        n_failed = sum(isinstance(fit, NotearsConvergenceError) for fit in fits["per cell"])
        assert report.failures == n_failed
        assert (n_failed > 0) == (rho_max < 1e16) and n_failed < len(cells)
        assert list(map(outcome, fits["lockstep"])) == list(map(outcome, fits["per cell"]))
        assert len(evaluations) == len(cells)
        assert evaluations == dict(log)
        assert [solve_nfevs(evaluations[key]) for key in keys] == per_solve

    def test_failed_cell_returns_the_error_notears_learn_raises(self, monkeypatch):
        # at a penalty cap of 1e3 the dense cells fail and the sparse ones converge
        monkeypatch.setattr(notears, "RHO_MAX", 1e3)
        problems = [(sample(preset_network("chain-4"), 300, seed=s), lam) for s in (12, 13) for lam in (1e-3, 0.5)]
        grams = np.array([notears.gram_matrix(m.values, False) for m, _ in problems])
        fits = notears.notears_lockstep(problems[0][0].columns, grams, np.array([lam for _, lam in problems]), 0.3)
        failed = [isinstance(fit, NotearsConvergenceError) for fit in fits]
        assert any(failed) and not all(failed)
        for (m, lam), fit in zip(problems, fits):
            try:
                alone = notears_learn(m, lambda1=lam)
            except NotearsConvergenceError as err:
                alone = err
            assert type(alone) is type(fit)
            assert outcome(alone) == outcome(fit)
