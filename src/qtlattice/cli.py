"""Command-line front end.

Subcommands expose every computation with machine-readable output: JSON for
single objects, CSV for grids.  Data goes to stdout (or --out); diagnostics
go to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.

Parsing needs the standard library only: numpy and the numerical modules
load when a handler first needs them, so a usage error, --help and the
exact oracle of `verify` never import numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys

from . import evolution, exact, horizons, lattice, metrics, observables
from ._size import _as_real, _require_finite, _require_size

USAGE_ERROR = 2
DOMAIN_ERROR = 1
# Options whose value is a number.  Before Python 3.14, argparse reads a negative number such
# as -1e-3, -1E5, -inf or -nan as an option name, but always reads "--alpha=-1e-3" as a value.
_NUMBER_OPTIONS = {"--alpha", "--alpha-min", "--alpha-max", "--t-max", "--tol-criterion"}


def _dump_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2, default=lambda value: value.tolist())
    stream.write("\n")


def _positive_finite(text: str) -> float:
    """argparse type of a tolerance; argparse reports float's ValueError itself."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive and finite")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: subparsers do not inherit it, and a
    # prefix such as --form would otherwise be accepted as --format.
    parser = argparse.ArgumentParser(
        prog="qtlattice", description="Legendre-lattice quasi-Hermitian toolkit", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, handler, needs_n=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="lattice size N")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = command("spectrum", "eigenvalues of the lattice Hamiltonian", _cmd_spectrum)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("metric", "a metric operator (diagonal, kappa or tridiagonal)", _cmd_metric)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kappa", default=None, help='comma list or "exceptional"')
    p.add_argument("--require-positive", action="store_true")

    p = command("charge", "charge operator C = Q^{-1} Theta", _cmd_charge)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kappa", default=None)

    command("horizon", "positivity boundary gamma of the tridiagonal family", _cmd_horizon)

    p = command("scan", "reality scan of Theta(alpha)^{-1} K over an alpha grid", _cmd_scan)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--k-matrix", default=None, help="JSON matrix file (default identity)")

    p = command(
        "check-observability", "Dieudonne + overlap-product tests", _cmd_check_observability
    )
    p.add_argument("--k-matrix", required=True, help="JSON file with the candidate matrix")
    p.add_argument("--kappa", default="exceptional")
    p.add_argument(
        "--tol-criterion",
        type=_positive_finite,
        default=None,
        help="tolerance of both observability tests",
    )

    p = command("evolve", "Theta-norm and Dirac-norm along the evolution", _cmd_evolve)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-steps", type=int, default=101)
    p.add_argument("--kappa", default=None)

    p = command("verify", "run the exact-arithmetic oracle checks", _cmd_verify, needs_n=False)
    p.add_argument("--n-max", type=int, default=8)
    return parser


def _load_matrix(path: str, N: int):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise ValueError(f'{path} is not a JSON object with a "matrix" key')
    matrix = _as_real(payload["matrix"], f"the matrix in {path}", 2)
    try:
        dimension = _require_size(payload.get("dimension"))
    except ValueError as exc:
        raise ValueError(f"the dimension in {path}: {exc}") from None
    if dimension != N or matrix.shape != (N, N):
        raise ValueError(f"the matrix in {path} does not have dimension {N}")
    return matrix


def _resolve_metric(args):
    """(Theta, kappa) of --alpha or --kappa at size --n: the CLI's one metric builder.

    --alpha is the tridiagonal Theta(alpha); --kappa a comma list of weights
    or "exceptional", whose KappaVector is returned (else None); neither is
    the diagonal Q.  Both options, or an empty or malformed --kappa, are domain errors.
    """
    alpha, text = getattr(args, "alpha", None), args.kappa
    if alpha is not None and text is not None:
        raise ValueError("--alpha and --kappa are mutually exclusive")
    if alpha is not None:
        return metrics.tridiagonal_metric(args.n, alpha), None
    if text is None:
        import numpy as np

        return metrics.MetricOperator(np.diag(lattice.build_metric_Q(args.n)), "diagonal-Q"), None
    system = lattice.biorthogonal_system(args.n)
    if text == "exceptional":
        kappa = metrics.exceptional_kappa(system)
    else:
        kappa = metrics.KappaVector(args.n, [float(tok) for tok in text.split(",")])
    return metrics.metric_from_kappa(system, kappa), kappa


def _write_csv(out, header: str, *columns) -> None:
    """A CSV table of columns: the repr of each float, an empty field for NaN, text as it is."""
    out.write(header + "\n")
    for row in zip(*columns):
        fields = (
            value if isinstance(value, str) else "" if math.isnan(value) else repr(float(value))
            for value in row
        )
        out.write(",".join(fields) + "\n")


def _cmd_spectrum(args, out):
    result = lattice.spectrum(lattice.build_hamiltonian(args.n))
    if args.format == "csv":
        _write_csv(out, "eigenvalue", result.roots)
    else:
        _dump_json(result.roots, out)


def _cmd_metric(args, out):
    theta, _ = _resolve_metric(args)
    if args.require_positive and theta.definiteness != "positive-definite":
        raise ValueError(f"metric is {theta.definiteness}, not positive-definite")
    _dump_json(dataclasses.asdict(theta), out)


def _cmd_charge(args, out):
    theta, _ = _resolve_metric(args)
    C = metrics.charge_operator(lattice.build_metric_Q(args.n), theta)
    _dump_json(dataclasses.asdict(C), out)


def _cmd_horizon(args, out):
    _dump_json(dataclasses.asdict(horizons.horizon_gamma(args.n)), out)


def _cmd_scan(args, out):
    import numpy as np

    if args.alpha_steps < 2:
        raise ValueError("--alpha-steps must be at least 2")
    _require_finite(args.alpha_min, "--alpha-min")
    _require_finite(args.alpha_max, "--alpha-max")
    grid = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    K = (
        _load_matrix(args.k_matrix, args.n)
        if args.k_matrix
        else np.eye(args.n)
    )
    scan = horizons.hidden_horizon_scan(args.n, K, grid)
    _write_csv(
        out, "alpha,max_imag,definiteness", scan.alpha_grid, scan.max_imag, scan.definiteness
    )


def _cmd_check_observability(args, out):
    Lambda = _load_matrix(args.k_matrix, args.n)
    system = lattice.biorthogonal_system(args.n)
    theta, kappa = _resolve_metric(args)
    residual = observables.dieudonne_residual(Lambda, theta)
    # the default is read here, so that building the parser loads no numerical
    # module; a tolerance given on the command line is positive, never 0
    tol = args.tol_criterion or observables.DEFAULT_CRITERION_TOL
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
    import numpy as np

    _require_finite(args.t_max, "--t-max")
    if args.t_steps < 0:
        raise ValueError("--t-steps must be at least 0")
    system = lattice.biorthogonal_system(args.n)
    theta, _ = _resolve_metric(args)
    psi0 = evolution.EvolutionState(args.n, np.ones(args.n) / np.sqrt(args.n))
    t_grid = np.linspace(0.0, args.t_max, args.t_steps)
    theta_norms, dirac_norms = evolution.norm_trajectory(system, theta, psi0, t_grid)
    _write_csv(out, "t,theta_norm,dirac_norm", t_grid, theta_norms, dirac_norms)


def _cmd_verify(args, out):
    n_max = min(args.n_max, exact.INTERTWINING_N_MAX)
    rows = [("intertwining", N, *exact.exact_intertwining_check(N)) for N in range(1, n_max + 1)]
    for N in range(2, n_max + 1):
        couplings = exact.exact_tridiagonal_solve(N)
        witness = ",".join(map(str, couplings))
        rows.append(("tridiagonal-couplings", N, couplings == list(range(1, N)), witness))
    for N in range(1, min(args.n_max, 6) + 1):
        rows.append(("exceptional-identity", N, exact.exact_exceptional_identity(N), ""))
    ok, witness = exact.exact_intertwining_check_factorial(3)
    # the published closed form must fail
    rows.append(("factorial-diagonal-intertwining", 3, not ok, witness))
    certificates = [{"check": c, "N": n, "pass": ok, "witness": str(w)} for c, n, ok, w in rows]
    _dump_json(certificates, out)


def run(argv: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit status."""
    parser = _build_parser()
    argv = list(argv)
    for i in reversed(range(len(argv) - 1)):  # the token after a number option is its value
        if argv[i] in _NUMBER_OPTIONS:
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    if getattr(args, "n", 1) < 1 or getattr(args, "n_max", 1) < 1:
        print("dimension must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    # Buffered, so that a failed command writes nothing and leaves --out untouched.
    out = io.StringIO()
    try:
        args.handler(args, out)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out.getvalue())
        else:
            sys.stdout.write(out.getvalue())
    # ImportError: numpy is missing, which only the numerical handlers find out;
    # MemoryError: an array too large to allocate, such as a grid of 10**15 steps
    except (ValueError, RuntimeError, OSError, ImportError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
