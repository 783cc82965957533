"""The benchmark's workloads: seeded inputs, the ops that consume them, and their checks.

Every op is a call into qtlattice (a library call run by worker.py, or one
`python -m qtlattice.cli` process) plus a check of its output against the
independent oracles in oracle.py.  The seed picks only the generated inputs
(kappa weights, K matrices, times t and metric parameters alpha); the sizes
are fixed per workload.

This module does not import qtlattice: library ops receive the package as
their first argument, so the parent process can list ops without paying
for the import.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracle as O

# Ops at the ceiling size run in their own process under this limit; the
# limit is generous for an O(N^2) eigensystem and an O(N) horizon at
# N = 1024 and far below the O(N^3) seed paths (minutes).
CEILING_LIMIT_S = 5.0
# Safety limits for every other op, so a run always ends in time.
LIBRARY_LIMIT_S = 30.0
CLI_LIMIT_S = 10.0

# Reality threshold of the program's scan, relative to max(1, max|K|).
REALITY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; TINY is for the benchmark's own tests."""

    ladder: tuple[int, ...] = (16, 64, 256)
    ceiling: int = 1024
    warm: tuple[int, ...] = (64, 256)
    propagator_calls: int = 5
    repeated_calls: int = 150
    drift_steps: int = 101
    observable_n: int = 64
    horizon: tuple[int, ...] = (2, 3, 16, 64, 256)
    definiteness: tuple[int, ...] = (64, 256)
    scan_points: int = 1200
    scan_n: int = 64
    repeated_scans: int = 7
    cli_small: int = 8
    cli_large: int = 32
    verify_n_max: int = 12


FULL = Sizes()
TINY = Sizes(
    ladder=(4, 8),
    ceiling=12,
    warm=(8,),
    propagator_calls=2,
    repeated_calls=3,
    drift_steps=11,
    observable_n=8,
    horizon=(2, 3, 8),
    definiteness=(8,),
    scan_points=60,
    scan_n=8,
    repeated_scans=2,
    cli_small=4,
    cli_large=8,
    verify_n_max=4,
)


class WrongAnswer(Exception):
    """An op returned a value its oracle rejects."""


class Malformed(Exception):
    """An op's output does not have the documented format (values were right)."""


def run_check(check, *args) -> tuple[str, str, dict[str, float]]:
    """(status, why, margins) of one check: ok, wrong (a value its oracle
    rejects) or malformed (output not shaped as documented)."""
    try:
        return "ok", "", check(*args)
    except WrongAnswer as exc:
        return "wrong", str(exc)[:300], {}
    except Malformed as exc:
        return "malformed", str(exc)[:300], {}
    except Exception as exc:  # e.g. a documented field is missing
        return "malformed", repr(exc)[:300], {}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def within(name: str, value: float, tol: float) -> dict[str, float]:
    """Check value <= tol and report the value as a margin named `name`."""
    expect(math.isfinite(value) and value <= tol, f"{name} {value:.3e} > {tol:.3e}")
    return {name: float(value)}


@dataclass(frozen=True)
class Op:
    """One call into qtlattice with its check.

    Library ops: run(qt, ctx) -> result, check(ctx, result) -> margins.
    CLI ops: argv and the expected exit status; check(stdout) -> margins.
    """

    name: str
    limit_s: float
    run: Callable[..., Any] | None = None
    check: Callable[..., dict[str, float]] | None = None
    argv: tuple[str, ...] = ()
    expected_exit: int = 0


@dataclass
class Workload:
    """The ops of one pass over a workload.

    `main` and `ceiling` ops run in order, each list in a fresh worker
    process; `cli` ops run one CLI process each.
    """

    name: str
    main: list[Op] = field(default_factory=list)
    ceiling: list[Op] = field(default_factory=list)
    cli: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)


# ------------------------------------------------------------------ helpers


def _symmetric(rng: np.random.Generator, N: int) -> np.ndarray:
    a = rng.normal(size=(N, N))
    return 0.5 * (a + a.T)


def _roots_check(N: int, values) -> dict[str, float]:
    values = np.asarray(values, dtype=float)
    expect(values.shape == (N,), f"expected {N} roots, got shape {values.shape}")
    err = float(np.max(np.abs(values - O.legendre_roots(N))))
    return within("legendre.root_err_max", err, O.root_tol(N))


def _system_check(N: int, system) -> dict[str, float]:
    energies = np.asarray(system.eigenvalues.roots, dtype=float)
    margins = _roots_check(N, energies)
    H = O.hamiltonian(N)
    kets = np.asarray(system.kets)
    scale = float(np.max(np.abs(kets))) * float(np.max(np.sum(np.abs(H), axis=1)))
    residual = float(np.max(np.abs(H @ kets - kets * energies[None, :]))) / scale
    margins |= within("lattice.eig_residual_max", residual, O.eig_residual_tol(N))
    q = O.metric_q(N)
    identity = (kets / np.asarray(system.q_norms)[None, :]) @ (kets.T * q[None, :])
    margins |= within(
        "lattice.identity_residual_max",
        float(np.max(np.abs(identity - np.eye(N)))),
        O.identity_tol(N),
    )
    expect(
        O.max_rel(system.ketkets, q[:, None] * kets) <= O.matrix_tol(N),
        "ketkets differ from Q kets",
    )
    return margins


def _theta_check(N: int, theta, reference: np.ndarray, label: str) -> dict[str, float]:
    err = O.max_rel(theta.matrix, reference)
    expect(err <= O.matrix_tol(N), f"metric differs from oracle by {err:.3e}")
    smallest = O.smallest_eigenvalue(reference)
    expect(theta.definiteness == label, f"labelled {theta.definiteness}, oracle {label}")
    expect((smallest > 0) == (label == "positive-definite"), "oracle label inconsistent")
    return {}


def _gamma_check(N: int, gamma: float) -> None:
    reference = {2: math.sqrt(3) / 2, 3: math.sqrt(5 / 12)}.get(N) or O.gamma(N)
    err = abs(gamma - reference)
    expect(err <= O.gamma_tol(N), f"gamma({N}) off by {err:.3e}")


def _pair_check(N: int, pair) -> dict[str, float]:
    M = np.asarray(pair.M)
    gap = abs(pair.hermiticity_residual - float(np.max(np.abs(M - M.conj().T))))
    expect(gap <= O.matrix_tol(N) * max(1.0, float(np.max(np.abs(M)))),
           f"reported Hermiticity residual off by {gap:.3e}")
    return {}


# ------------------------------------------------------------------ spectral


def _ladder_ops(N: int, kappa: np.ndarray, limit: float) -> list[Op]:
    sys_name = f"biorthogonal_system.n{N}"
    theta_name = f"metric_from_kappa.n{N}"

    def metric_run(qt, ctx):
        return qt.metric_from_kappa(ctx[sys_name], qt.KappaVector(N, kappa))

    def kappa_check(ctx, result):
        err = float(np.max(np.abs(np.asarray(result.values) - kappa) / kappa))
        return within("metrics.kappa_roundtrip_err_max", err, O.kappa_tol(N))

    def charge_check(ctx, result):
        theta = ctx[theta_name].matrix
        err = O.max_rel(O.metric_q(N)[:, None] * np.asarray(result.matrix), theta)
        expect(err <= O.matrix_tol(N), f"Q C differs from Theta by {err:.3e}")
        return {}

    return [
        Op(
            f"roots_P.n{N}",
            limit,
            run=lambda qt, ctx: qt.roots_P(N),
            check=lambda ctx, r: _roots_check(N, r.roots),
        ),
        Op(
            f"spectrum.n{N}",
            limit,
            run=lambda qt, ctx: qt.spectrum(qt.build_hamiltonian(N)),
            check=lambda ctx, r: _roots_check(N, r.roots),
        ),
        Op(sys_name, limit, run=lambda qt, ctx: qt.biorthogonal_system(N),
           check=lambda ctx, r: _system_check(N, r)),
        Op(
            theta_name,
            limit,
            run=metric_run,
            check=lambda ctx, r: _theta_check(
                N, r, O.kappa_theta(N, kappa), "positive-definite"
            ),
        ),
        Op(
            f"kappa_from_metric.n{N}",
            limit,
            run=lambda qt, ctx: qt.kappa_from_metric(ctx[sys_name], ctx[theta_name]),
            check=kappa_check,
        ),
        Op(
            f"charge_operator.n{N}",
            limit,
            run=lambda qt, ctx: qt.charge_operator(qt.build_metric_Q(N), ctx[theta_name]),
            check=charge_check,
        ),
    ]


def _propagator_op(N: int, t: float) -> Op:
    def check(ctx, result):
        err = O.max_rel(result, O.propagator(N, t))
        expect(err <= O.matrix_tol(N), f"propagator differs from oracle by {err:.3e}")
        return {}

    # one name for every call, so the worker keeps only the last result
    return Op(
        f"propagator.n{N}",
        LIBRARY_LIMIT_S,
        run=lambda qt, ctx: qt.propagator(qt.build_hamiltonian(N), t),
        check=check,
    )


def _warm_ops(N: int, times: np.ndarray, t_max: float, psi0: np.ndarray, steps: int) -> list[Op]:
    ops = [_propagator_op(N, float(t)) for t in times]
    grid = np.linspace(0.0, t_max, steps)

    def drift_run(qt, ctx):
        return qt.norm_drift(
            qt.build_hamiltonian(N),
            ctx[f"metric_from_kappa.n{N}"],
            qt.EvolutionState(N, psi0),
            grid,
        )

    ops.append(
        Op(
            f"norm_drift.n{N}",
            LIBRARY_LIMIT_S,
            run=drift_run,
            check=lambda ctx, r: within("evolution.theta_drift_max", float(r[0]), O.drift_tol(N)),
        )
    )
    return ops


def _candidate_ops(N: int, kappa: np.ndarray, tag: str, candidate, observable: bool) -> list[Op]:
    """Dieudonne test, spectral data, overlap matrices and product test of one candidate.

    Passes when both observability tests agree with the construction.
    """
    theta_name = f"metric_from_kappa.n{N}"
    data_name = f"spectral_data.n{N}.{tag}"
    pair_name = f"overlap_matrices.n{N}.{tag}"
    tol = 1e-10 * max(1.0, N / 64.0)

    def dieudonne_check(ctx, result):
        lam, theta = candidate(ctx), ctx[theta_name].matrix
        reference = np.max(np.abs(lam.T @ theta - theta @ lam)) / max(
            1.0, np.max(np.abs(theta)) * np.max(np.abs(lam))
        )
        expect(
            abs(result - reference) <= 1e-6 * reference + O.matrix_tol(N),
            f"residual {result:.3e} vs oracle {reference:.3e}",
        )
        expect((result <= tol) == observable, f"Dieudonne test says {result:.3e}")
        return {}

    def spectral_check(ctx, data):
        lam = candidate(ctx)
        scale = np.max(np.abs(lam))
        right, left = np.asarray(data.right_vectors), np.asarray(data.left_vectors)
        values = np.asarray(data.eigenvalues)
        residual = max(
            np.max(np.abs(lam @ right - right * values[None, :])),
            np.max(np.abs(lam.T @ left - left * values[None, :])),
        )
        expect(residual <= 1e3 * O.matrix_tol(N) * scale, f"eigen residual {residual:.3e}")
        if observable:
            expect(np.max(np.abs(values.imag)) <= REALITY_THRESHOLD * scale,
                   "observable has a complex spectrum")
        return {}

    def criterion_check(ctx, result):
        expect(bool(result) == observable, f"product test says {result}")
        return {}

    return [
        Op(
            f"dieudonne_residual.n{N}.{tag}",
            LIBRARY_LIMIT_S,
            run=lambda qt, ctx: qt.dieudonne_residual(candidate(ctx), ctx[theta_name]),
            check=dieudonne_check,
        ),
        Op(
            data_name,
            LIBRARY_LIMIT_S,
            run=lambda qt, ctx: qt.spectral_data(candidate(ctx)),
            check=spectral_check,
        ),
        Op(
            pair_name,
            LIBRARY_LIMIT_S,
            run=lambda qt, ctx: qt.overlap_matrices(
                ctx[f"biorthogonal_system.n{N}"], qt.KappaVector(N, kappa), ctx[data_name]
            ),
            check=lambda ctx, pair: _pair_check(N, pair),
        ),
        Op(
            f"criterion_product_hermitian.n{N}.{tag}",
            LIBRARY_LIMIT_S,
            run=lambda qt, ctx: qt.criterion_product_hermitian(ctx[pair_name]),
            check=criterion_check,
        ),
    ]


def _observable_ops(N: int, kappa: np.ndarray, K: np.ndarray, noise: np.ndarray) -> list[Op]:
    """Lambda = Theta^{-1} K, an observable, and a perturbed non-observable."""
    theta_name = f"metric_from_kappa.n{N}"
    lam_name = f"observable_from_hermitian.n{N}"

    def lambda_check(ctx, result):
        theta = O.kappa_theta(N, kappa)
        residual = np.max(np.abs(theta @ result - K)) / (
            np.max(np.abs(theta)) * np.max(np.abs(result))
        )
        expect(residual <= O.matrix_tol(N), f"Theta Lambda - K residual {residual:.3e}")
        return {}

    def perturbed(ctx):
        lam = ctx[lam_name]
        return lam + 1e-3 * np.max(np.abs(lam)) * noise

    return (
        [
            Op(
                lam_name,
                LIBRARY_LIMIT_S,
                run=lambda qt, ctx: qt.observable_from_hermitian(K, ctx[theta_name]),
                check=lambda_check,
            )
        ]
        + _candidate_ops(N, kappa, "obs", lambda ctx: ctx[lam_name], True)
        + _candidate_ops(N, kappa, "bad", perturbed, False)
    )


def spectral(seed: int, sizes: Sizes) -> Workload:
    rng = np.random.default_rng([seed, 1])
    kappa = {
        N: rng.uniform(0.5, 2.0, N) * O.exceptional_weights(N)
        for N in (*sizes.ladder, sizes.ceiling)
    }
    main: list[Op] = []
    for N in sizes.ladder:
        main += _ladder_ops(N, kappa[N], LIBRARY_LIMIT_S)
    for N in sizes.warm:
        times = rng.uniform(0.1, 5.0, sizes.propagator_calls)
        t_max = float(rng.uniform(5.0, 20.0))
        psi0 = rng.normal(size=N)
        main += _warm_ops(N, times, t_max, psi0, sizes.drift_steps)
    N = sizes.observable_n
    main += _observable_ops(N, kappa[N], _symmetric(rng, N), rng.normal(size=(N, N)))
    # repeated propagator calls at the largest warm size: each call rebuilds
    # the eigensystem today, so adding a cache is what this part would show
    N = max(sizes.warm)
    times = rng.uniform(0.1, 5.0, sizes.repeated_calls)
    main += [_propagator_op(N, float(t)) for t in times]
    ceiling = _ladder_ops(sizes.ceiling, kappa[sizes.ceiling], CEILING_LIMIT_S)
    return Workload("spectral", main=main, ceiling=ceiling)


# ------------------------------------------------------------------ horizons


def _gamma_op(N: int, limit: float) -> Op:
    def check(ctx, report):
        _gamma_check(N, report.gamma)
        return {
            "horizons.cross_check_residual_max": float(report.cross_check_residual),
            "horizons.bisection_iterations": int(report.bisection_iterations),
        }

    return Op(f"horizon_gamma.n{N}", limit, run=lambda qt, ctx: qt.horizon_gamma(N), check=check)


def _scan_check(N: int, K: np.ndarray, grid: np.ndarray, scan, samples: np.ndarray,
                crossing: tuple[float, float] | None) -> dict[str, float]:
    max_imag = np.asarray(scan.max_imag, dtype=float)
    expect(max_imag.shape == grid.shape, "scan length differs from the grid")
    expect(np.array_equal(np.asarray(scan.alpha_grid), grid), "scan grid differs")
    scale = max(1.0, float(np.max(np.abs(K))))
    gamma = O.gamma(N)
    step = grid[1] - grid[0]
    first = scan.first_crossing
    if crossing is not None:
        # grid points carry the rounding of linspace, hence the 1e-12 slack
        expect(first is not None and crossing[0] - 1e-12 <= first <= crossing[1] + 1e-12,
               f"first crossing {first} outside {crossing}")
    expect(first is None or first >= gamma - step, f"crossing {first} inside gamma {gamma}")
    for i in samples:
        alpha = float(grid[i])
        if abs(abs(alpha) - gamma) < 2 * step or np.isnan(max_imag[i]):
            continue
        smallest = O.smallest_eigenvalue(O.tridiagonal_theta(N, alpha))
        label = "positive-definite" if smallest > 0 else "indefinite"
        expect(scan.definiteness[i] == label, f"alpha={alpha}: {scan.definiteness[i]} vs {label}")
        reference = O.reality_max_imag(N, K, alpha)
        if reference <= 1e-3 * REALITY_THRESHOLD * scale:
            expect(max_imag[i] <= REALITY_THRESHOLD * scale, f"alpha={alpha}: spurious imag part")
        elif reference >= 1e3 * REALITY_THRESHOLD * scale:
            expect(abs(max_imag[i] - reference) <= 1e-4 * reference,
                   f"alpha={alpha}: imag {max_imag[i]:.3e} vs oracle {reference:.3e}")
    return {
        "horizons.scan_points": len(grid),
        "horizons.scan_skipped": len(scan.skipped_singular),
    }


def _scan_op(N: int, K: np.ndarray, grid: np.ndarray, samples: np.ndarray,
             crossing: tuple[float, float] | None, tag: str) -> Op:
    return Op(
        f"hidden_horizon_scan.n{N}.{tag}",
        LIBRARY_LIMIT_S,
        run=lambda qt, ctx: qt.hidden_horizon_scan(N, K, grid),
        check=lambda ctx, scan: _scan_check(N, K, grid, scan, samples, crossing),
    )


def _definiteness_op(N: int, alpha: float, tag: str) -> Op:
    reference = O.tridiagonal_theta(N, alpha)
    label = "positive-definite" if O.smallest_eigenvalue(reference) > 0 else "indefinite"
    return Op(
        f"tridiagonal_metric.n{N}.{tag}",
        LIBRARY_LIMIT_S,
        run=lambda qt, ctx: qt.tridiagonal_metric(N, alpha),
        check=lambda ctx, theta: _theta_check(N, theta, reference, label),
    )


def horizons(seed: int, sizes: Sizes) -> Workload:
    rng = np.random.default_rng([seed, 2])
    main = [_gamma_op(N, LIBRARY_LIMIT_S) for N in sizes.horizon]
    for N in sizes.definiteness:
        gamma = O.gamma(N)
        main.append(_definiteness_op(N, float(rng.uniform(0.2, 0.9) * gamma), "inside"))
        main.append(_definiteness_op(N, float(rng.uniform(1.1, 1.6) * gamma), "outside"))
    P = sizes.scan_points
    # the N = 2 closed form: reality is lost exactly at alpha = 1
    grid2 = np.linspace(0.0, 1.2, P, endpoint=False)
    main.append(
        _scan_op(2, np.diag([1.0, -1.0]), grid2, rng.choice(P, 12), (1.0, 1.0 + 1.2 / P),
                 "closed_form")
    )
    # a fixed grid, so that every seed puts as many points inside gamma,
    # where classifying Theta costs a full elimination, as outside
    N = sizes.scan_n
    grid = np.linspace(0.0, 2.0 * O.gamma(N), P, endpoint=False)
    main += [
        _scan_op(N, _symmetric(rng, N), grid, rng.choice(P, 12), None, f"K{k}")
        for k in range(1 + sizes.repeated_scans)
    ]
    ceiling = [_gamma_op(sizes.ceiling, CEILING_LIMIT_S)]
    return Workload("horizons", main=main, ceiling=ceiling)


# ------------------------------------------------------------------ cli


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _csv(stdout: str, numeric: int) -> tuple[list[str], np.ndarray, list[str], list[str]]:
    """Header, the first `numeric` columns as floats (an empty field is nan),
    the last column as text when there are more (the scan's labels), and
    the fields that were numpy reprs such as np.float64(0.5), not numbers.
    """
    lines = stdout.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    reprs: list[str] = []

    def number(text: str) -> float:
        if not text:
            return math.nan
        try:
            return float(text)
        except ValueError:
            match = _NUMPY_REPR.fullmatch(text)
            if match is None:
                raise Malformed(f"CSV field {text!r} is not a number") from None
            reprs.append(text)
            return float(match.group(1))

    values = np.array([[number(r[i]) for i in range(numeric)] for r in rows])
    labels = [r[-1] for r in rows] if rows and len(rows[0]) > numeric else []
    return lines[0].split(","), values.reshape(len(rows), numeric), labels, reprs


def _well_formed(reprs: list[str], margins: dict[str, float]) -> dict[str, float]:
    """Values passed; fail the op (not the answer) if the CSV held non-numbers."""
    if reprs:
        raise Malformed(f"{len(reprs)} CSV fields are numpy reprs, e.g. {reprs[0]!r}")
    return margins


def _cli(name: str, argv: list[str], check=None, expected_exit: int = 0) -> Op:
    return Op(
        name,
        CLI_LIMIT_S,
        check=check,
        argv=tuple(str(a) for a in argv),
        expected_exit=expected_exit,
    )


def _matrix_file(matrix: np.ndarray) -> str:
    return json.dumps({"dimension": len(matrix), "matrix": matrix.tolist()})


def _cli_theta(N: int, reference: np.ndarray):
    def check(stdout):
        payload = json.loads(stdout)
        err = O.max_rel(np.asarray(payload["matrix"]), reference)
        expect(err <= O.matrix_tol(N), f"metric differs from oracle by {err:.3e}")
        expect(payload["definiteness"] == "positive-definite", payload["definiteness"])
        return {}

    return check


def _cli_charge(N: int, theta: np.ndarray):
    def check(stdout):
        C = np.asarray(json.loads(stdout)["matrix"])
        err = O.max_rel(O.metric_q(N)[:, None] * C, theta)
        expect(err <= O.matrix_tol(N), f"Q C differs from Theta by {err:.3e}")
        return {}

    return check


def _cli_gamma(N: int):
    def check(stdout):
        _gamma_check(N, json.loads(stdout)["gamma"])
        return {}

    return check


def _cli_scan(N: int, K: np.ndarray, grid: np.ndarray, samples, crossing):
    def check(stdout):
        header, values, labels, reprs = _csv(stdout, 2)
        expect(header == ["alpha", "max_imag", "definiteness"], f"header {header}")
        alphas, imag = values[:, 0], values[:, 1]
        scale = max(1.0, float(np.max(np.abs(K))))
        crossed = np.nonzero(imag > REALITY_THRESHOLD * scale)[0]

        scan = SimpleNamespace(
            alpha_grid=alphas,
            max_imag=imag,
            definiteness=labels,
            first_crossing=float(alphas[crossed[0]]) if len(crossed) else None,
            skipped_singular=[a for a, v in zip(alphas, imag) if np.isnan(v)],
        )
        expect(np.allclose(alphas, grid, rtol=0, atol=1e-15), "scan grid differs")
        margins = _scan_check(N, K, alphas, scan, samples, crossing)
        return _well_formed(reprs, margins)

    return check


def _cli_observability(observable: bool):
    def check(stdout):
        report = json.loads(stdout)
        expect(report["observable"] == observable, f"observable={report['observable']}")
        expect(report.get("product_hermitian") == observable,
               f"product test says {report.get('product_hermitian')}")
        return {}

    return check


def _cli_evolve(N: int, t_max: float, steps: int):
    def check(stdout):
        header, data, _, reprs = _csv(stdout, 3)
        expect(header == ["t", "theta_norm", "dirac_norm"], f"header {header}")
        expect(np.allclose(data[:, 0], np.linspace(0.0, t_max, steps), rtol=0, atol=1e-12),
               "time grid differs")
        drift = float(np.max(np.abs(data[:, 1] / data[0, 1] - 1.0)))
        return _well_formed(reprs, within("evolution.theta_drift_max", drift, O.drift_tol(N)))

    return check


def _cli_verify(n_max: int):
    expected = min(n_max, 12) + min(n_max, 12) - 1 + min(n_max, 6) + 1

    def check(stdout):
        certificates = json.loads(stdout)
        expect(len(certificates) == expected, f"{len(certificates)} certificates")
        failed = [c for c in certificates if not c["pass"]]
        expect(not failed, f"failed certificates: {failed[:2]}")
        return {}

    return check


def _cli_spectrum(N: int, fmt: str):
    def check(stdout):
        if fmt == "csv":
            header, values, _, reprs = _csv(stdout, 1)
            expect(header == ["eigenvalue"], f"header {header}")
            return _well_formed(reprs, _roots_check(N, values[:, 0]))
        return _roots_check(N, json.loads(stdout))

    return check


def cli(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    small, large = sizes.cli_small, sizes.cli_large
    alpha = float(rng.uniform(0.2, 0.9) * O.gamma(small))
    kappa_n = small + 4
    kappa = rng.uniform(0.5, 2.0, kappa_n) * O.exceptional_weights(kappa_n)
    alpha_c = float(rng.uniform(0.2, 0.9) * O.gamma(2 * small))
    scan_n = small + 4
    K_scan = _symmetric(rng, scan_n)
    scan_grid = np.linspace(0.0, float(rng.uniform(1.5, 2.5) * O.gamma(scan_n)), 200)
    scan_samples = rng.choice(len(scan_grid), 8)
    obs_n = 6
    # exceptional weights give Theta = Q, so Q^{-1} K is an observable
    lam = _symmetric(rng, obs_n) / O.metric_q(obs_n)[:, None]
    bad = lam + 1e-3 * np.max(np.abs(lam)) * rng.normal(size=(obs_n, obs_n))
    evolve_n = 2 * small
    t_max = float(rng.uniform(5.0, 20.0))
    evolve_kappa = rng.uniform(0.5, 2.0, evolve_n) * O.exceptional_weights(evolve_n)

    def csv_list(values):
        return ",".join(repr(float(v)) for v in values)

    files = {
        str(workdir / "k_scan2.json"): _matrix_file(np.diag([1.0, -1.0])),
        str(workdir / "k_scan.json"): _matrix_file(K_scan),
        str(workdir / "lambda_obs.json"): _matrix_file(lam),
        str(workdir / "lambda_bad.json"): _matrix_file(bad),
    }
    ops = [
        _cli("spectrum.json", ["spectrum", "--n", 2 * small, "--format", "json"],
             _cli_spectrum(2 * small, "json")),
        _cli("spectrum.csv", ["spectrum", "--n", large, "--format", "csv"],
             _cli_spectrum(large, "csv")),
        _cli("metric.alpha", ["metric", "--n", small, "--alpha", repr(alpha), "--require-positive"],
             _cli_theta(small, O.tridiagonal_theta(small, alpha))),
        _cli("metric.kappa", ["metric", "--n", kappa_n, "--kappa", csv_list(kappa)],
             _cli_theta(kappa_n, O.kappa_theta(kappa_n, kappa))),
        _cli("charge.exceptional", ["charge", "--n", small, "--kappa", "exceptional"],
             _cli_charge(small, np.diag(O.metric_q(small)))),
        _cli("charge.alpha", ["charge", "--n", 2 * small, "--alpha", repr(alpha_c)],
             _cli_charge(2 * small, O.tridiagonal_theta(2 * small, alpha_c))),
        _cli("horizon.n2", ["horizon", "--n", 2], _cli_gamma(2)),
        _cli("horizon.large", ["horizon", "--n", large], _cli_gamma(large)),
        _cli(
            "scan.n2",
            ["scan", "--n", 2, "--alpha-min", 0, "--alpha-max", 1.2, "--alpha-steps", 1201,
             "--k-matrix", workdir / "k_scan2.json"],
            _cli_scan(2, np.diag([1.0, -1.0]), np.linspace(0.0, 1.2, 1201),
                      np.arange(0, 1201, 100), (1.0, 1.001)),
        ),
        _cli(
            "scan.seeded",
            ["scan", "--n", scan_n, "--alpha-min", 0, "--alpha-max", repr(float(scan_grid[-1])),
             "--alpha-steps", len(scan_grid), "--k-matrix", workdir / "k_scan.json"],
            _cli_scan(scan_n, K_scan, scan_grid, scan_samples, None),
        ),
        _cli("check-observability.obs",
             ["check-observability", "--n", obs_n, "--k-matrix", workdir / "lambda_obs.json"],
             _cli_observability(True)),
        _cli("check-observability.bad",
             ["check-observability", "--n", obs_n, "--k-matrix", workdir / "lambda_bad.json"],
             _cli_observability(False)),
        _cli("evolve",
             ["evolve", "--n", evolve_n, "--t-max", repr(t_max), "--t-steps", 101,
              "--kappa", csv_list(evolve_kappa)],
             _cli_evolve(evolve_n, t_max, 101)),
        _cli("verify", ["verify", "--n-max", sizes.verify_n_max], _cli_verify(sizes.verify_n_max)),
        # documented error paths: 1 is a domain error, 2 a usage error
        _cli("error.indefinite", ["metric", "--n", 2, "--alpha", 2.0, "--require-positive"],
             expected_exit=1),
        _cli("error.nan", ["metric", "--n", 2, "--alpha", "nan", "--require-positive"],
             expected_exit=1),
        _cli("error.tol_value", ["spectrum", "--n", 3, "--tol-x", "abc"], expected_exit=2),
        _cli("error.n0", ["spectrum", "--n", 0], expected_exit=2),
    ]
    return Workload("cli", cli=ops, files=files)


BUILDERS = {"cli": cli, "spectral": spectral, "horizons": horizons}


def build(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    if name == "cli":
        return cli(seed, sizes, workdir)
    return BUILDERS[name](seed, sizes)
