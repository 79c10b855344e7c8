"""Classical trajectories of a trial action.

Two solvers live here: a damped-Newton relaxation for the Euclidean
two-point boundary value problem m x'' = +grad V (discrete second
differences, banded Jacobian, halved-T continuation when a direct solve
stalls), and a fourth-order symplectic integrator (Forest-Ruth composition)
for real-time dynamics.
"""
from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import ActionSpec, PolynomialPotential, _as_integer, _derivative_terms, _polynomial_source

if TYPE_CHECKING:
    import numpy as np

NEWTON_RTOL = 1e-10
MAX_NEWTON = 60
MIN_NODES = 32  # fewest mesh nodes of a two-point solve
MAX_NODES = 2**16  # most mesh nodes of a two-point solve


@dataclass(frozen=True)
class PhaseState:
    """Point in phase space: positions and conjugate momenta."""

    position: tuple
    momentum: tuple

    def __post_init__(self):
        q = tuple(float(v) for v in self.position)
        p = tuple(float(v) for v in self.momentum)
        if len(q) != len(p):
            raise ValueError("position and momentum must have equal length")
        if not all(math.isfinite(v) for v in q + p):
            raise ValueError("phase-space coordinates must be finite")
        object.__setattr__(self, "position", q)
        object.__setattr__(self, "momentum", p)

    @property
    def dim(self) -> int:
        return len(self.position)


@dataclass
class TrajectorySolution:
    """Discrete two-point trajectory with its action and Euclidean energy.

    ``residual`` is the largest Euler-Lagrange defect of the converged path
    (scaled by the force magnitude); ``energy_spread`` measures how constant
    -T_kin + V is along the path, which is limited by the O(dt^2)
    discretization rather than by the Newton tolerance.
    """

    times: np.ndarray
    path: np.ndarray  # (n_nodes, dim)
    action: float
    euclidean_energy: float
    energy_spread: float
    converged: bool
    residual: float

    @property
    def dim(self) -> int:
        return self.path.shape[1]


def hamiltonian_energy(action: ActionSpec, state: PhaseState) -> float:
    return sum(p * p for p in state.momentum) / (2.0 * action.mass) + action.potential(state.position)


# -- Euclidean boundary value problem ---------------------------------------


def _el_defect(path: np.ndarray, dt: float, m: float, pot: PolynomialPotential) -> tuple:
    """Euler-Lagrange defect at the interior nodes, and the magnitude of its terms.

    Scaling the defect by that magnitude (backward-error convention) keeps
    the convergence test meaningful: the raw second difference carries an
    irreducible eps*m*|x|/dt^2 rounding floor.
    """
    import numpy as np

    grad = pot.gradient_points(path[1:-1])
    acc = (path[2:] - 2.0 * path[1:-1] + path[:-2]) / dt**2
    mags = m * (np.abs(path[2:]) + 2.0 * np.abs(path[1:-1]) + np.abs(path[:-2])) / dt**2
    mags += np.abs(grad)
    return m * acc - grad, 1.0 + float(np.max(mags))


def _newton_relax(pot, m, path, dt):
    """Damped Newton on the interior nodes; returns (path, scaled residual, ok).

    Each iterate evaluates the defect once: the accepted line-search trial's
    defect is the next iterate's."""
    import numpy as np

    from . import _lapack

    n, dim = path.shape
    c = m / dt**2
    F, scale = _el_defect(path, dt, m, pot)
    for _ in range(MAX_NEWTON):
        res = float(np.max(np.abs(F))) / scale
        if res <= NEWTON_RTOL:
            return path, res, True
        hess = pot.hessian_points(path[1:-1])
        nin = n - 2
        # bandwidth dim: neighbouring nodes at offset dim, in 2-D a node's x-y coupling at 1
        ab = np.zeros((2 * dim + 1, nin * dim))
        ab[0, dim:] = ab[2 * dim, :-dim] = c
        ab[dim] = (-2.0 * c - np.diagonal(hess, axis1=1, axis2=2)).ravel()
        if dim == 2:
            ab[1, 1::2] = ab[3, 0::2] = -hess[:, 0, 1]
        try:
            delta = _lapack.solve_banded(dim, ab, -F.ravel())
        except (np.linalg.LinAlgError, ValueError):
            return path, res, False
        delta = delta.reshape(nin, dim)
        f0 = float(np.linalg.norm(F))
        lam = 1.0
        while lam > 1e-10:
            trial = path.copy()
            trial[1:-1] += lam * delta
            F1, scale1 = _el_defect(trial, dt, m, pot)
            f1 = float(np.linalg.norm(F1))
            if f1 <= (1.0 - 0.25 * lam) * f0 or f1 < 1e-300:
                path, F, scale = trial, F1, scale1
                break
            lam *= 0.5
        else:
            return path, res, False
    res = float(np.max(np.abs(F))) / scale
    return path, res, res <= NEWTON_RTOL


def _straight_line(x_i, x_f, n_nodes):
    import numpy as np

    s = np.linspace(0.0, 1.0, n_nodes)[:, None]
    return (1.0 - s) * x_i[None, :] + s * x_f[None, :]


def solve_euclidean_bvp(
    action: ActionSpec,
    x_i,
    x_f,
    T: float,
    n_nodes: int = 257,
    init_path: np.ndarray | None = None,
) -> TrajectorySolution:
    """Relax the Euclidean two-point problem on a uniform time mesh.

    Falls back to continuation over T/2^k (reusing the normalized-time path
    between rungs) when the straight-line start does not converge.
    """
    import numpy as np

    if T <= 0:
        raise ValueError(f"transition time must be positive, got {T}")
    if not MIN_NODES <= n_nodes <= MAX_NODES:
        raise ValueError(f"mesh node count must lie in [{MIN_NODES}, {MAX_NODES}], got {n_nodes}")
    dim = action.dimension
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    x_f = np.atleast_1d(np.asarray(x_f, dtype=float))
    if x_i.shape != (dim,) or x_f.shape != (dim,):
        raise ValueError("boundary points must match the action dimension")
    pot = action.potential
    m = action.mass
    dt = T / (n_nodes - 1)

    if init_path is not None:
        start = np.array(init_path, dtype=float)
        if start.shape != (n_nodes, dim):
            raise ValueError("init_path shape mismatch")
        start[0], start[-1] = x_i, x_f
    else:
        start = _straight_line(x_i, x_f, n_nodes)
    path, res, ok = _newton_relax(pot, m, start.copy(), dt)

    if not ok:
        rungs = max(1, math.ceil(math.log2(max(T, 1e-12) / 0.25)))
        cpath = _straight_line(x_i, x_f, n_nodes)
        cok = True
        for k in range(rungs, -1, -1):
            dt_k = (T / 2**k) / (n_nodes - 1)
            cpath, cres, cok = _newton_relax(pot, m, cpath, dt_k)
            if not cok:
                break
        if cok:
            path, res, ok = cpath, cres, cok

    return _finish_solution(action, path, T, res, ok)


def _finish_solution(action, path, T, res, ok) -> TrajectorySolution:
    """Wrap a relaxed path with its discrete action and Euclidean energy.

    The action is the variational sum sum_k dt [m/2 ((x_{k+1} - x_k)/dt)^2
    + (V_k + V_{k+1})/2], the one whose stationarity in the interior nodes
    is exactly the Newton stencil, so its parameter derivatives along a
    converged path are the partial derivatives of the summand.
    """
    import numpy as np

    n = path.shape[0]
    times = np.linspace(0.0, T, n)
    dt = T / (n - 1)
    v_half = np.diff(path, axis=0) / dt
    ke_half = 0.5 * action.mass * np.sum(v_half**2, axis=1)
    v_nodes = action.potential.evaluate_points(path)
    v_half_mean = 0.5 * (v_nodes[:-1] + v_nodes[1:])
    eps_half = -ke_half + v_half_mean
    return TrajectorySolution(
        times=times,
        path=path,
        action=float(dt * np.sum(ke_half + v_half_mean)),
        euclidean_energy=float(np.mean(eps_half)),
        energy_spread=float(np.max(eps_half) - np.min(eps_half)),
        converged=ok,
        residual=res,
    )


# -- real-time symplectic integration ---------------------------------------

_FR_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_FR_DRIFT = (_FR_THETA / 2.0, (1.0 - _FR_THETA) / 2.0)
_FR_KICK = (_FR_THETA, 1.0 - 2.0 * _FR_THETA)
C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")  # no FMA, no -ffast-math
C_BUILD_TIMEOUT_S = 30.0
MAX_STEPS = 2**62  # most steps of one run: ctypes wraps a count beyond a C long long silently


def _step_statements(dimension: int, terms: tuple, mass: float, dt: float) -> list:
    """One Forest-Ruth step of H = (px^2 + py^2)/2m + V on x, y, px, py.

    Each statement is valid Python and valid C: the gradient polynomial and
    the drift and kick coefficients are float literals combined by ``*`` and
    ``+`` from left to right, so both languages round every operation alike.
    A 1-D potential has dV/dy = 0.0, keeping y and py at 0.
    """
    names = ("x", "y")[:dimension]
    grad = [_polynomial_source(_derivative_terms(terms, a), names) for a in range(dimension)] + ["0.0"]
    m_inv = 1.0 / mass
    drift = [[f"x += {d * dt * m_inv!r} * px", f"y += {d * dt * m_inv!r} * py"] for d in _FR_DRIFT]
    kick = [[f"px -= {k * dt!r} * ({grad[0]})", f"py -= {k * dt!r} * ({grad[1]})"] for k in _FR_KICK]
    return [*drift[0], *kick[0], *drift[1], *kick[1], *drift[1], *kick[0], *drift[0]]


def _python_loop(statements: list, q: str):
    """The loop as a Python function; its source holds only float literals
    and the state's names, so it runs without builtins but ``range``."""
    source = "\n".join([
        "def loop(n, c, x, y, px, py):",
        "    k, x0, y0, px0, py0 = 0, x, y, px, py",
        "    for k in range(1, n + 1):",
        "        x0 = x; y0 = y; px0 = px; py0 = py",
        *("        " + s for s in statements),
        f"        if {q}0 < c <= {q} or {q} <= c < {q}0: break",
        "    return k, (x0, y0, px0, py0), (x, y, px, py)",
    ])
    namespace = {"__builtins__": {"range": range}}
    exec(source, namespace)
    loop = namespace["loop"]
    loop.backend = "python"
    return loop


def _c_loop(statements: list, q: str, python_loop):
    """The loop of ``statements`` compiled as the C function
    ``long long loop(long long n, double c, double *s)``, or None.

    ``s`` holds the state in s[0..3] and the state before the last step in
    s[4..7]. Its domain is 0 <= n <= ``MAX_STEPS``; callers bound n there.
    The source holds this one loop; one compiler call builds it in a
    temporary directory of the system that is removed before returning.
    A library that passes the probe is copied into the user cache, named by
    the sha256 of its source, compiler and flags (``_kept_path``), as a part
    file moved into place, so no process loads it half written. A later process loads
    and probes it and calls no compiler; one that fails to load or to pass
    is deleted and rebuilt. The cache holds at most ``_MAX_KEPT_LOOPS``
    files: past that, every one goes before the next is kept. Deleting the
    directory clears it. The loop is None when no compiler is found, when
    the build fails or times out, or when it differs in any bit from
    ``python_loop`` on a short probe.
    """
    import ctypes
    import hashlib
    import shutil

    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    source = "\n".join([
        "long long loop(long long n, double c, double *s)",
        "{",
        "    double x = s[0], y = s[1], px = s[2], py = s[3];",
        "    double x0 = x, y0 = y, px0 = px, py0 = py;",
        "    long long k = 0;",
        "    while (k < n) {",
        "        k++;",
        "        x0 = x; y0 = y; px0 = px; py0 = py;",
        *(f"        {s};" for s in statements),
        f"        if (({q}0 < c && c <= {q}) || ({q} <= c && c < {q}0)) break;",
        "    }",
        "    s[0] = x; s[1] = y; s[2] = px; s[3] = py;",
        "    s[4] = x0; s[5] = y0; s[6] = px0; s[7] = py0;",
        "    return k;",
        "}",
        "",
    ])
    state_type = ctypes.c_double * 8

    def probed(library):  # the loop holds the library loaded
        compiled = library.loop
        compiled.argtypes = (ctypes.c_longlong, ctypes.c_double, ctypes.POINTER(ctypes.c_double))
        compiled.restype = ctypes.c_longlong

        def loop(n, c, x, y, px, py):
            s = state_type(x, y, px, py)
            k = compiled(n, c, s)
            return k, tuple(s[4:]), tuple(s[:4])

        loop.backend = "c"
        return loop if _same_bits(loop, python_loop, "xy".index(q)) else None

    kept = _kept_path(compiler, source)
    if kept is not None:
        with contextlib.suppress(OSError, AttributeError):  # not kept yet, or not this loop
            with open(kept, "rb") as fh:
                data = fh.read()
            # a kept file ends in the sha256 of the library before it: a truncated
            # library would not fail to load but crash the process (SIGBUS)
            loop = probed(ctypes.CDLL(kept)) if hashlib.sha256(data[:-32]).digest() == data[-32:] else None
            if loop is not None:
                return loop
        with contextlib.suppress(OSError):
            os.unlink(kept)

    import subprocess  # only a build needs these
    import tempfile
    import threading

    try:
        with tempfile.TemporaryDirectory(prefix="qaction-") as build:
            path = f"{build}/loop.c"
            with open(path, "w") as fh:
                fh.write(source)
            with subprocess.Popen(
                [compiler, *C_FLAGS, "-o", f"{build}/loop.so", path],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ) as compiling:
                # a timer kills a build past its timeout: wait(timeout) would poll
                # with sleeps that double up to 50 ms, late by up to half a build
                timer = threading.Timer(C_BUILD_TIMEOUT_S, compiling.kill)
                timer.start()
                try:
                    failed = compiling.wait() != 0
                finally:
                    timer.cancel()
            if failed:
                return None
            loop = probed(ctypes.CDLL(f"{build}/loop.so"))
            if kept is not None and loop is not None:
                with contextlib.suppress(OSError):  # then it is not kept
                    cache = os.path.dirname(kept)
                    # kept libraries, and any part file a killed run left
                    full = [name for name in os.listdir(cache) if name.startswith("loops-")]
                    for old in full if len(full) >= _MAX_KEPT_LOOPS else ():
                        os.unlink(os.path.join(cache, old))
                    with open(f"{build}/loop.so", "rb") as fh:
                        library = fh.read()
                    fd, part = tempfile.mkstemp(prefix="loops-", suffix=".part", dir=cache)  # mode 0600
                    try:
                        with os.fdopen(fd, "wb") as fh:
                            fh.write(library + hashlib.sha256(library).digest())  # appended: dlopen ignores it
                        os.replace(part, kept)
                    finally:
                        with contextlib.suppress(OSError):  # gone once it is in place
                            os.unlink(part)
    except OSError:
        return None
    return loop


def _kept_path(compiler: str, source: str):
    """The library file of ``source`` built by ``compiler``, named by the
    sha256 of those, the machine and ``C_FLAGS``, in ``$XDG_CACHE_HOME/qaction``
    or ``$HOME/.cache/qaction`` (absolute paths only): made 0700, and None
    unless this user owns it and no one else may write to it."""
    import hashlib

    base, home = os.environ.get("XDG_CACHE_HOME", ""), os.environ.get("HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(home, ".cache") if os.path.isabs(home) else None
    if base is None or not hasattr(os, "getuid"):
        return None
    cache, real = os.path.join(base, "qaction"), os.path.realpath(compiler)
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        owner, built_by = os.stat(cache), os.stat(real)
    except OSError:
        return None
    if owner.st_uid != os.getuid() or owner.st_mode & 0o022 or not os.access(cache, os.W_OK):
        return None
    key = [real, str(built_by.st_size), str(built_by.st_mtime_ns), os.uname().machine, *C_FLAGS, source]
    return os.path.join(cache, f"loops-{hashlib.sha256(chr(0).join(key).encode()).hexdigest()}.so")


def _same_bits(loop, reference, axis: int) -> bool:
    """Whether two loops agree in every bit over a few dozen steps, run once
    without a plane and once with a plane crossed on the way."""
    import struct

    start = (0.3, -0.2, 0.5, 0.7)
    _, _, end = reference(40, math.nan, *start)
    planes = (math.nan, 0.5 * (start[axis] + end[axis]))
    runs = [(40, c, *start) for c in planes]

    def pack(result):
        k, before, after = result
        return k, struct.pack("8d", *before, *after)

    return all(pack(loop(*run)) == pack(reference(*run)) for run in runs)


_STEP_LOOPS = {}  # the step loops built in this process, by key
_MAX_KEPT_LOOPS = 64  # past this many, the kept loops are dropped before the next build


def _step_loop(dimension: int, terms: tuple, mass: float, dt: float, plane_axis: int):
    """The Forest-Ruth loop ``loop(n, c, x, y, px, py) -> (k, before, after)``
    of this key.

    A loop takes at most n steps (0 <= n <= ``MAX_STEPS``) of
    H = (px^2 + py^2)/2m + V and returns after the first step k at which the
    plane coordinate (x or y by plane_axis) changes side of c, with the
    states (x, y, px, py) before and after that step; c = nan is a plane no
    step crosses. The loop runs as C when a C compiler is on PATH and as
    generated Python otherwise, with the same bits either way;
    ``loop.backend`` names the one that runs. Each key is built once per
    process while at most ``_MAX_KEPT_LOOPS`` keys are held; the next new
    key drops them all. Its C library is kept in the user cache for later
    processes (``_c_loop``).
    """
    key = (dimension, terms, mass, dt, plane_axis)
    if key not in _STEP_LOOPS:
        if len(_STEP_LOOPS) >= _MAX_KEPT_LOOPS:
            _STEP_LOOPS.clear()
        _STEP_LOOPS[key] = _build_step_loop(key)
    return _STEP_LOOPS[key]


def _build_step_loop(key: tuple):
    """A new loop of ``_step_loop`` for this key: compiled by ``_c_loop``,
    or its Python loop when that gives None."""
    dimension, terms, mass, dt, plane_axis = key
    statements, q = _step_statements(dimension, terms, mass, dt), "xy"[plane_axis]
    python_loop = _python_loop(statements, q)
    return _c_loop(statements, q, python_loop) or python_loop


def integrate_realtime(
    action: ActionSpec,
    s0: PhaseState,
    T: float,
    dt: float,
    store_every: int = 1,
) -> list[PhaseState]:
    """Forest-Ruth fourth-order integration of Hamilton's equations.

    Returns the states at steps 0, store_every, 2*store_every, ... plus the
    final step; the number of steps is round(T/dt), at most ``MAX_STEPS``.
    """
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > 1e-2:
        raise ValueError("dt above 1e-2 is outside the validated step range")
    if T <= 0:
        raise ValueError(f"integration time must be positive, got {T}")
    if not T / dt <= MAX_STEPS:
        raise ValueError(f"T/dt = {T / dt} steps, beyond the bound of 2**62")
    if s0.dim != action.dimension:
        raise ValueError("initial state dimension does not match the action")
    if _as_integer(store_every, "store_every") < 1:
        raise ValueError("store_every must be >= 1")
    n_steps = max(1, int(round(T / dt)))
    dim = s0.dim
    loop = _step_loop(dim, action.potential.terms, action.mass, dt, 1)
    state = (*s0.position, 0.0)[:2] + (*s0.momentum, 0.0)[:2]
    out = [s0]
    for done in range(0, n_steps, store_every):
        _, _, state = loop(min(store_every, n_steps - done), math.nan, *state)
        out.append(PhaseState(state[:dim], state[2 : 2 + dim]))
    return out
