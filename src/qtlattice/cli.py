"""Command-line front end.

Subcommands expose every computation with machine-readable output: JSON for
single objects, CSV for grids.  Data goes to stdout (or --out); diagnostics
go to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import evolution, exact, horizons, lattice, metrics, observables

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class DomainError(Exception):
    pass


def _dump_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2, default=float)
    stream.write("\n")


def _positive_finite(text: str) -> float:
    """argparse type of a tolerance; argparse reports float's ValueError itself."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive and finite")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: subparsers do not inherit it, and a
    # prefix such as --form would otherwise be accepted as --format.
    parser = argparse.ArgumentParser(
        prog="qtlattice", description="Legendre-lattice quasi-Hermitian toolkit", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, needs_n=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="lattice size N")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = command("spectrum", "eigenvalues of the lattice Hamiltonian")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("metric", "a metric operator (diagonal, kappa or tridiagonal)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kappa", default=None, help='comma list or "exceptional"')
    p.add_argument("--require-positive", action="store_true")

    p = command("charge", "charge operator C = Q^{-1} Theta")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kappa", default=None)

    command("horizon", "positivity boundary gamma of the tridiagonal family")

    p = command("scan", "reality scan of Theta(alpha)^{-1} K over an alpha grid")
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--k-matrix", default=None, help="JSON matrix file (default identity)")

    p = command("check-observability", "Dieudonne + overlap-product tests")
    p.add_argument("--k-matrix", required=True, help="JSON file with the candidate matrix")
    p.add_argument("--kappa", default="exceptional")
    p.add_argument(
        "--tol-criterion",
        type=_positive_finite,
        default=observables.DEFAULT_CRITERION_TOL,
        help="tolerance of both observability tests",
    )

    p = command("evolve", "Theta-norm and Dirac-norm along the evolution")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-steps", type=int, default=101)
    p.add_argument("--kappa", default=None)

    p = command("verify", "run the exact-arithmetic oracle checks", needs_n=False)
    p.add_argument("--n-max", type=int, default=8)
    return parser


def _load_matrix(path: str, N: int) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise DomainError(f'{path} is not a JSON object with a "matrix" key')
    try:
        matrix = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"matrix in {path} is not numeric: {exc}") from exc
    if payload.get("dimension") != N or matrix.shape != (N, N):
        raise DomainError(f"matrix in {path} does not have dimension {N}")
    if not np.isfinite(matrix).all():
        raise DomainError(f"matrix in {path} has non-finite entries")
    return matrix


def _parse_kappa(text: str | None, system) -> metrics.KappaVector:
    if text is None or text == "exceptional":
        return metrics.exceptional_kappa(system)
    values = np.array([float(tok) for tok in text.split(",")])
    return metrics.KappaVector(system.dimension, values)


def _resolve_metric(args, N: int) -> metrics.MetricOperator:
    if args.alpha is not None and args.kappa is not None:
        raise DomainError("--alpha and --kappa are mutually exclusive")
    if args.alpha is not None:
        return metrics.tridiagonal_metric(N, args.alpha)
    if args.kappa is not None:
        system = lattice.biorthogonal_system(N)
        return metrics.metric_from_kappa(system, _parse_kappa(args.kappa, system))
    return _diagonal_metric(N)


def _diagonal_metric(N: int) -> metrics.MetricOperator:
    Q = lattice.build_metric_Q(N)
    return metrics.MetricOperator(N, Q.to_dense(), "positive-definite", "diagonal-Q")


def _cmd_spectrum(args, out):
    result = lattice.spectrum(lattice.build_hamiltonian(args.n))
    if args.format == "csv":
        out.write("eigenvalue\n")
        for value in result.roots:
            out.write(f"{float(value)!r}\n")
    else:
        _dump_json(result.to_json(), out)


def _cmd_metric(args, out):
    theta = _resolve_metric(args, args.n)
    if args.require_positive and theta.definiteness != "positive-definite":
        raise DomainError(f"metric is {theta.definiteness}, not positive-definite")
    _dump_json(theta.to_json(), out)


def _cmd_charge(args, out):
    theta = _resolve_metric(args, args.n)
    C = metrics.charge_operator(lattice.build_metric_Q(args.n), theta)
    _dump_json(C.to_json(), out)


def _cmd_horizon(args, out):
    _dump_json(horizons.horizon_gamma(args.n).to_json(), out)


def _cmd_scan(args, out):
    if args.alpha_steps < 2:
        raise DomainError("--alpha-steps must be at least 2")
    if not np.isfinite([args.alpha_min, args.alpha_max]).all():
        raise DomainError("--alpha-min and --alpha-max must be finite")
    grid = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    K = (
        _load_matrix(args.k_matrix, args.n)
        if args.k_matrix
        else np.eye(args.n)
    )
    scan = horizons.hidden_horizon_scan(args.n, K, grid)
    out.write("alpha,max_imag,definiteness\n")
    for alpha, imag, label in zip(scan.alpha_grid, scan.max_imag, scan.definiteness):
        imag_text = "" if np.isnan(imag) else repr(float(imag))
        out.write(f"{float(alpha)!r},{imag_text},{label}\n")


def _cmd_check_observability(args, out):
    Lambda = _load_matrix(args.k_matrix, args.n)
    system = lattice.biorthogonal_system(args.n)
    kappa = _parse_kappa(args.kappa, system)
    theta = metrics.metric_from_kappa(system, kappa)
    residual = observables.dieudonne_residual(Lambda, theta)
    tol = args.tol_criterion
    report = {
        "dimension": args.n,
        "dieudonne_residual": residual,
        "tolerance": tol,
    }
    try:
        data = observables.spectral_data(Lambda)
        pair = observables.overlap_matrices(system, kappa, data)
        report["hermiticity_residual"] = pair.hermiticity_residual
        report["product_hermitian"] = observables.criterion_product_hermitian(pair, tol)
    except ValueError as exc:
        report["overlap_test"] = f"unavailable: {exc}"
    report["observable"] = residual <= tol
    _dump_json(report, out)


def _cmd_evolve(args, out):
    if not np.isfinite(args.t_max):
        raise DomainError("--t-max must be finite")
    system = lattice.biorthogonal_system(args.n)
    if args.kappa:
        theta = metrics.metric_from_kappa(system, _parse_kappa(args.kappa, system))
    else:
        theta = _diagonal_metric(args.n)
    if theta.definiteness != "positive-definite":
        raise DomainError("evolution norms need a positive-definite metric")
    psi0 = evolution.EvolutionState(args.n, np.ones(args.n) / np.sqrt(args.n))
    t_grid = np.linspace(0.0, args.t_max, args.t_steps)
    theta_norms, dirac_norms = evolution.norm_trajectory(system, theta, psi0, t_grid)
    out.write("t,theta_norm,dirac_norm\n")
    for row in zip(t_grid.tolist(), theta_norms.tolist(), dirac_norms.tolist()):
        out.write("%r,%r,%r\n" % row)


def _cmd_verify(args, out):
    certificates = []
    for N in range(1, min(args.n_max, exact.INTERTWINING_N_MAX) + 1):
        ok, witness = exact.exact_intertwining_check(N)
        certificates.append(
            {"check": "intertwining", "N": N, "pass": ok, "witness": str(witness)}
        )
    for N in range(2, min(args.n_max, exact.INTERTWINING_N_MAX) + 1):
        couplings = exact.exact_tridiagonal_solve(N)
        ok = couplings == list(range(1, N))
        certificates.append(
            {
                "check": "tridiagonal-couplings",
                "N": N,
                "pass": ok,
                "witness": ",".join(str(c) for c in couplings),
            }
        )
    for N in range(1, min(args.n_max, 6) + 1):
        ok = exact.exact_exceptional_identity(N)
        certificates.append(
            {"check": "exceptional-identity", "N": N, "pass": ok, "witness": ""}
        )
    ok, witness = exact.exact_intertwining_check_factorial(3)
    certificates.append(
        {
            "check": "factorial-diagonal-intertwining",
            "N": 3,
            "pass": not ok,  # the published closed form must fail
            "witness": str(witness),
        }
    )
    _dump_json(certificates, out)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "metric": _cmd_metric,
    "charge": _cmd_charge,
    "horizon": _cmd_horizon,
    "scan": _cmd_scan,
    "check-observability": _cmd_check_observability,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    if getattr(args, "n", 1) < 1:
        print("dimension must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    # Buffered, so that a failed command writes nothing and leaves --out untouched.
    out = io.StringIO()
    try:
        _COMMANDS[args.subcommand](args, out)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out.getvalue())
        else:
            sys.stdout.write(out.getvalue())
    except (DomainError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
