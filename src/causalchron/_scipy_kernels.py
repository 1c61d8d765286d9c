"""The compiled scipy kernels the package calls, loaded without their packages.

This module is the one place that knows scipy's layout.  The package needs
four scipy kernels: the L-BFGS-B step ``setulb`` (Byrd, Lu, Nocedal & Zhu
1995) of ``scipy.optimize._lbfgsb`` and the Padé kernels
``pick_pade_structure``/``pade_UV_calc`` of ``scipy.linalg._matfuncs_expm``
behind ``expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 2009), both
for NOTEARS, and the ufuncs ``chdtrc`` (chi-square tail, G² test) and
``_hypergeom_pmf`` (exact Fisher test; ``scipy.stats.hypergeom.pmf`` wraps
it) of ``scipy.special._ufuncs``.  Importing them the usual way runs the
``__init__`` of ``scipy.optimize``, ``scipy.linalg`` and ``scipy.special``,
which load most of those packages: on CPython 3.11 with scipy 1.17,
``import causalchron.pipeline`` then peaks at about 79 MiB of RSS instead
of 39 MiB.  :func:`load_kernel` instead finds each extension module in
scipy's install directory and runs only its own initialisation.

An extension such as ``_ufuncs`` imports siblings (``._ufuncs_cxx`` and
others) while it initialises, and a relative import runs its package's
``__init__`` unless the package is in ``sys.modules`` already.  So for the
duration of the load :func:`load_kernel` registers a bare stand-in
``scipy.<package>`` whose ``__path__`` is scipy's package directory.
Afterwards it removes the stand-in and every module the load registered:
those are bound to the stand-in, not to the real package, and left in
``sys.modules`` they would stop a later ``import scipy.<package>`` from
binding them as its attributes.  Without them, that import loads them
again and binds the very function objects returned here.

:func:`expm` is scipy 1.17's ``scipy.linalg.expm`` for real float64 input on
those kernels, so every slice keeps its bits (tests/test_notears.py checks
that against the installed scipy).  It classifies all slices of a stack in
one pass instead of calling scipy's per-slice ``bandwidth`` wrapper, and
runs the Padé kernels in place on the slices of one stacked scratch.  A
stack whose every slice is general, with entries both below and above the
diagonal, is the usual NOTEARS case once W leaves 0; it skips the masked
copies, the zeroed output and the triangle zeroing that diagonal and
triangular slices need, and returns a view of the scratch.  Every call
allocates its own scratch, so no result aliases another's.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import ModuleType

import numpy as np
import scipy

__all__ = ["chdtrc", "expm", "hypergeom_pmf", "load_kernel", "setulb"]


def load_kernel(package: str, name: str) -> ModuleType:
    """The extension module ``scipy.<package>.<name>``, without running
    ``scipy/<package>/__init__.py``; raises ImportError if scipy has none."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:  # its package is loaded already
        return sys.modules[full]
    path = os.path.join(scipy.__path__[0], package)
    stand_in = ModuleType(f"scipy.{package}")
    stand_in.__path__ = [path]
    before = dict(sys.modules)
    sys.modules[stand_in.__name__] = stand_in
    try:
        spec = PathFinder.find_spec(full, [path])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no extension module {full}", name=full)
        # a single-phase extension runs its initialisation here, a multi-phase one in exec_module
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key in sys.modules.keys() - before.keys():
            del sys.modules[key]
        sys.modules.update(before)  # the real package, where it was loaded already
    return module


setulb = load_kernel("optimize", "_lbfgsb").setulb
_pade = load_kernel("linalg", "_matfuncs_expm")
_ufuncs = load_kernel("special", "_ufuncs")
chdtrc = _ufuncs.chdtrc  # at (df, x)
hypergeom_pmf = _ufuncs._hypergeom_pmf  # at (k, n_good, n_draws, n_total), not clipped to [0, 1]


def _exp_sinch(x: np.ndarray) -> np.ndarray:
    # Higham's formula (10.42), might overflow, see GH-11839; copied from
    # scipy.linalg._matfuncs (scipy 1.17, BSD-3-Clause)
    lexp_diff = np.diff(np.exp(x))
    l_diff = np.diff(x)
    mask_z = l_diff == 0.0
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:-1][mask_z])
    return lexp_diff


@functools.cache
def _off_diagonal(n: int) -> np.ndarray:
    """(n * n, 2) flags of the flat entries of an (n, n) matrix below and
    above the diagonal: a stack's ``(flat != 0) @`` them tells, per slice,
    whether it has an entry there (NaN counts, as it does for ``any``).
    Read-only, as every later call shares it."""
    below = np.tri(n, k=-1, dtype=bool)
    flags = np.stack([below.ravel(), below.T.ravel()], axis=1)
    flags.flags.writeable = False
    return flags


def _pade_squared(slices: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """exp of each slice of a (G, n, n) stack whose slices have entries off
    the diagonal; ``nonzero`` (G, 2) tells whether a slice has entries below
    and above it.  The body of scipy's per-slice loop, on one (G, 5, n, n)
    scratch: the Padé kernels run in place on each slice's (5, n, n) view,
    then each slice scaled by 2**-s with s > 0 squares back (see
    :func:`_squared`).  Returns a view of the scratch, left unzeroed outside
    a triangular slice's triangle."""
    am = np.empty((len(slices), 5, *slices.shape[1:]))
    am[:, 0] = slices
    powers = []
    pick, pade_uv = _pade.pick_pade_structure, _pade.pade_UV_calc
    for view in am:
        m, s = pick(view)  # scales view[0] by 2**-s
        info = pade_uv(view, m) if m >= 0 else m
        if info != 0:
            raise RuntimeError(f"the expm Padé kernels failed (error code {info})")
        powers.append(s)
    eaw = am[:, 0]
    if any(powers):
        for k, s in enumerate(powers):
            if s:
                eaw[k] = _squared(slices[k], eaw[k], s, *nonzero[k])
    return eaw


def _squared(aw: np.ndarray, eaw: np.ndarray, s: int, lower: bool, upper: bool) -> np.ndarray:
    """Undo the 2**-s scaling of exp(aw): square a generic slice s times; for
    a triangular one, Code Fragment 2.1 of Al-Mohy & Higham (2009), which
    recomputes the diagonal and the first sub- (``lower``) or superdiagonal
    exactly at every squaring."""
    if lower and upper:
        for _ in range(s):
            eaw = eaw @ eaw
        return eaw
    diag_aw = np.diag(aw)
    np.einsum("ii->i", eaw)[:] = np.exp(diag_aw * 2 ** (-s))
    sd = np.diag(aw, k=-1 if lower else 1)
    for i in range(s - 1, -1, -1):
        eaw = eaw @ eaw
        np.einsum("ii->i", eaw)[:] = np.exp(diag_aw * 2.0 ** (-i))
        exp_sd = _exp_sinch(diag_aw * (2.0 ** (-i))) * (sd * 2 ** (-i))
        np.einsum("ii->i", eaw[1:, :-1] if lower else eaw[:-1, 1:])[:] = exp_sd
    return eaw


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of each (n, n) slice of a real (..., n, n)
    array, computed in float64 bit for bit as ``scipy.linalg.expm`` does.

    The slices are classified in one pass: a boolean matmul of the stack's
    nonzero flags with cached strict-triangle flags.  When every slice is
    general, with entries both below and above the diagonal (NOTEARS's W o W
    once W leaves 0), the stack goes straight through the Padé kernels and
    the result is a view of their scratch (see :func:`_pade_squared`).
    Otherwise diagonal slices (every slice when n = 1) exponentiate their
    diagonal, and the others are copied at once into one Padé scratch and
    their results zeroed outside a triangular slice's triangle, as scipy
    leaves them.  Each call has its own scratch, so no two results share
    memory.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    stack = a.reshape(math.prod(a.shape[:-2]), n, n)
    nonzero = (stack.reshape(len(stack), n * n) != 0) @ _off_diagonal(n)  # (K, 2): below, above
    if nonzero.all():
        return _pade_squared(stack, nonzero).reshape(a.shape)
    off_diagonal = nonzero.any(axis=1)
    out = np.zeros(stack.shape)
    diagonal = ~off_diagonal
    if diagonal.any():
        np.einsum("kii->ki", out)[diagonal] = np.exp(np.diagonal(stack[diagonal], axis1=-2, axis2=-1))
    if off_diagonal.any():
        general = nonzero[off_diagonal]
        eaw = _pade_squared(stack[off_diagonal], general)
        lower, upper = general.T
        # zero the part of a triangular slice's result that scipy leaves at zero
        for keep, zeroed in ((lower & ~upper, np.tril), (upper & ~lower, np.triu)):
            if keep.any():
                eaw[keep] = zeroed(eaw[keep])
        out[off_diagonal] = eaw
    return out.reshape(a.shape)
