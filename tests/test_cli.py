import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_hamiltonian
from hypothesis import given, settings
from hypothesis import strategies as st

import qtlattice
from qtlattice.cli import run


def invoke(argv, capsys):
    status = run(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_spectrum_json(capsys):
    status, out, _ = invoke(["spectrum", "--n", "3", "--format", "json"], capsys)
    assert status == 0
    values = json.loads(out)
    assert len(values) == 3
    assert values == sorted(values)
    assert values[1] == 0.0


def test_spectrum_determinism(capsys):
    _, out1, _ = invoke(["spectrum", "--n", "5"], capsys)
    _, out2, _ = invoke(["spectrum", "--n", "5"], capsys)
    assert out1 == out2


def test_horizon_json(capsys):
    status, out, _ = invoke(["horizon", "--n", "2"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(0.8660254037844386, abs=1e-12)


def test_metric_require_positive_failure(capsys):
    status, out, err = invoke(
        ["metric", "--n", "2", "--alpha", "2.0", "--require-positive"], capsys
    )
    assert status == 1
    assert out == ""
    assert "indefinite" in err


def test_metric_kappa_exceptional(capsys):
    status, out, _ = invoke(["metric", "--n", "3", "--kappa", "exceptional"], capsys)
    assert status == 0
    payload = json.loads(out)
    np.testing.assert_allclose(
        payload["matrix"], np.diag([0.5, 1.5, 2.5]), atol=1e-12
    )
    assert payload["definiteness"] == "positive-definite"


@pytest.mark.parametrize(
    "argv, provenance",
    [([], "diagonal-Q"), (["--alpha", "0.1"], "tridiagonal-family"),
     (["--kappa", "exceptional"], "kappa-family")],
)
def test_metric_json_keys_and_the_label_of_diagonal_q(argv, provenance, capsys):
    """The diagonal Q is labelled by the classifier too, and the keys keep their order."""
    status, out, _ = invoke(["metric", "--n", "4", "--require-positive", *argv], capsys)
    payload = json.loads(out)
    assert status == 0 and list(payload) == ["dimension", "matrix", "definiteness", "provenance"]
    assert (payload["dimension"], payload["definiteness"]) == (4, "positive-definite")
    assert payload["provenance"] == provenance


def test_charge_exceptional_is_identity(capsys):
    status, out, _ = invoke(["charge", "--n", "3", "--kappa", "exceptional"], capsys)
    assert status == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["matrix"], np.eye(3), atol=1e-11)


def test_scan_csv(capsys, tmp_path):
    k_file = tmp_path / "k.json"
    k_file.write_text(json.dumps({"dimension": 2, "matrix": [[1.0, 0.0], [0.0, -1.0]]}))
    status, out, _ = invoke(
        [
            "scan", "--n", "2", "--alpha-min", "0.0", "--alpha-max", "1.1",
            "--alpha-steps", "23", "--k-matrix", str(k_file),
        ],
        capsys,
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,max_imag,definiteness"
    assert len(lines) == 24
    last = lines[-1].split(",")
    assert float(last[1]) > 1e-8  # beyond the hidden horizon at alpha = 1
    assert last[2] == "indefinite"


def test_check_observability_round_trip(capsys, tmp_path):
    # a matrix written by `metric` and re-read by `check-observability`
    # reproduces the in-process residual exactly (full-precision JSON)
    import qtlattice as qt

    matrix_file = tmp_path / "theta.json"
    status = run(["metric", "--n", "3", "--alpha", "0.1", "--out", str(matrix_file)])
    assert status == 0
    capsys.readouterr()
    status, out, _ = invoke(
        ["check-observability", "--n", "3", "--k-matrix", str(matrix_file)], capsys
    )
    assert status == 0
    report = json.loads(out)
    system = qt.biorthogonal_system(3)
    theta = qt.metric_from_kappa(system, qt.exceptional_kappa(system))
    expected = qt.dieudonne_residual(qt.tridiagonal_metric(3, 0.1).matrix, theta)
    assert report["dieudonne_residual"] == pytest.approx(expected, abs=1e-15)


def test_hamiltonian_is_observable_via_cli(capsys, tmp_path):
    import qtlattice as qt

    matrix_file = tmp_path / "h.json"
    H = dense_hamiltonian(3)
    matrix_file.write_text(json.dumps({"dimension": 3, "matrix": H.tolist()}))
    status, out, _ = invoke(
        ["check-observability", "--n", "3", "--k-matrix", str(matrix_file)], capsys
    )
    assert status == 0
    report = json.loads(out)
    assert report["observable"] is True
    assert report["product_hermitian"] is True


def test_check_observability_negative(capsys, tmp_path):
    matrix_file = tmp_path / "bad.json"
    matrix_file.write_text(
        json.dumps({"dimension": 2, "matrix": [[0.0, 1.0], [0.3, 0.0]]})
    )
    status, out, _ = invoke(
        ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)], capsys
    )
    assert status == 0
    report = json.loads(out)
    assert report["observable"] is False
    assert report["product_hermitian"] is False


def test_check_observability_of_a_subnormal_matrix(capsys, tmp_path):
    """A subnormal max|Lambda| gets a finite power-of-two factor (an OverflowError traceback while
    the factor was 2^-e unclamped): one report, with the verdicts of the unscaled matrix."""
    reports = []
    for scale in (1.0, 1e-310):
        matrix_file = tmp_path / "k.json"
        matrix = [[0.0, scale], [2 * scale, 0.0]]
        matrix_file.write_text(json.dumps({"dimension": 2, "matrix": matrix}))
        status, out, err = invoke(
            ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)], capsys
        )
        assert (status, err) == (0, "")
        reports.append(json.loads(out))
    unscaled, subnormal = reports
    assert subnormal["dieudonne_residual"] == unscaled["dieudonne_residual"] > 0.1
    assert subnormal["observable"] is unscaled["observable"] is False
    assert subnormal["product_hermitian"] is unscaled["product_hermitian"] is False


def test_check_observability_reports_on_a_near_defective_matrix(capsys, tmp_path):
    """The Dieudonne verdict needs no eigensystem: an ill-conditioned one only loses the overlap test."""
    # its eigenvalue condition number is 1e6, so the conditioning gate rejects it on any build
    matrix_file = tmp_path / "near_defective.json"
    matrix_file.write_text(json.dumps({"dimension": 2, "matrix": [[1.0, 1.0], [0.0, 1.000001]]}))
    status, out, err = invoke(
        ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)], capsys
    )
    assert (status, err) == (0, "")
    report = json.loads(out)
    assert report["overlap_test"] == (
        "unavailable: eigenvectors too ill-conditioned: "
        "reconstruction error estimate 4.4e-04 > 1.0e-10"
    )
    assert report["observable"] is False and report["dieudonne_residual"] > 0.1


def test_evolve_csv(capsys):
    status, out, _ = invoke(
        ["evolve", "--n", "4", "--t-max", "10", "--t-steps", "11"], capsys
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,theta_norm,dirac_norm"
    assert len(lines) == 12
    theta_norms = [float(line.split(",")[1]) for line in lines[1:]]
    dirac_norms = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(abs(v / theta_norms[0] - 1) for v in theta_norms) <= 1e-10
    assert max(abs(v / dirac_norms[0] - 1) for v in dirac_norms) > 1e-3


def test_verify_certificates(capsys):
    status, out, _ = invoke(["verify", "--n-max", "4"], capsys)
    assert status == 0
    certificates = json.loads(out)
    assert all(entry["pass"] for entry in certificates)
    checks = {entry["check"] for entry in certificates}
    assert checks == {
        "intertwining",
        "tridiagonal-couplings",
        "exceptional-identity",
        "factorial-diagonal-intertwining",
    }


def test_verify_output_matches_the_golden_file(capsys):
    status, out, _ = invoke(["verify", "--n-max", "12"], capsys)
    assert status == 0
    assert out.encode() == (Path(__file__).parent / "data" / "verify_n12.json").read_bytes()


def test_usage_errors(capsys):
    status, _, _ = invoke(["spectrum"], capsys)  # missing --n
    assert status == 2
    status, _, _ = invoke(["spectrum", "--n", "3", "--bogus"], capsys)
    assert status == 2
    status, _, _ = invoke(["nonsense"], capsys)
    assert status == 2


def test_negative_tolerance_rejected(capsys):
    status, _, _ = invoke(
        ["check-observability", "--n", "2", "--k-matrix", "x.json", "--tol-criterion", "-1"],
        capsys,
    )
    assert status == 2


def test_metric_serialization_full_precision(capsys, tmp_path):
    matrix_file = tmp_path / "theta.json"
    run(["metric", "--n", "4", "--alpha", "0.123456789", "--out", str(matrix_file)])
    capsys.readouterr()
    payload = json.loads(matrix_file.read_text())
    from qtlattice import tridiagonal_metric

    np.testing.assert_array_equal(
        np.asarray(payload["matrix"]), tridiagonal_metric(4, 0.123456789).matrix
    )


def test_non_finite_alpha_is_a_domain_error(capsys):
    status, out, err = invoke(
        ["metric", "--n", "2", "--alpha", "nan", "--require-positive"], capsys
    )
    assert (status, out) == (1, "")
    assert "finite" in err
    status, out, err = invoke(
        ["scan", "--n", "2", "--alpha-min", "0", "--alpha-max", "inf", "--alpha-steps", "5"],
        capsys,
    )
    assert (status, out) == (1, "")
    assert "finite" in err


def test_non_finite_matrix_file_is_a_domain_error(capsys, tmp_path):
    matrix_file = tmp_path / "nan.json"
    matrix_file.write_text('{"dimension": 2, "matrix": [[1.0, NaN], [NaN, 1.0]]}')
    for argv in (
        ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)],
        ["scan", "--n", "2", "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "3",
         "--k-matrix", str(matrix_file)],
    ):
        status, out, err = invoke(argv, capsys)
        assert (status, out) == (1, "")
        assert "is not finite" in err


@pytest.mark.parametrize(
    "matrix, message",
    [('[["1.0", "0"], ["0", "2"]]', "must be real numbers, not <U3 input"),
     ("[[1.0, 0.0], [0.0]]", "must be real numbers, not ragged input"),
     ("[1.0, 0.0]", "must be two-dimensional, not one of shape (2,)"),
     (f"[[1{'0' * 400}, 0], [0, 1]]", "must be real numbers, not object input")],
    ids=["numeric-text", "ragged", "one-row", "huge-integer"],
)
def test_matrix_file_must_hold_a_real_matrix(matrix, message, capsys, tmp_path):
    """Numeric text is not parsed as numbers, and an integer beyond float range is no
    OverflowError traceback: the gate of the library reads the file."""
    matrix_file = tmp_path / "k.json"
    matrix_file.write_text(f'{{"dimension": 2, "matrix": {matrix}}}')
    for argv in (
        ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)],
        ["scan", "--n", "2", "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "3",
         "--k-matrix", str(matrix_file)],
    ):
        status, out, err = invoke(argv, capsys)
        assert (status, out) == (1, "")
        assert err == f"error: the matrix in {matrix_file} {message}\n"


@pytest.mark.parametrize(
    "content",
    ['{"dimension": 2}', "[[1.0, 0.0], [0.0, 1.0]]",
     '{"dimension": 2, "matrix": [[1, "a"], [0, 1]]}', '{"dimension": 2, "matrix": {"a": 1}}',
     "not json"],
)
def test_malformed_matrix_file_is_a_domain_error(content, capsys, tmp_path):
    matrix_file = tmp_path / "bad.json"
    matrix_file.write_text(content)
    for argv in (
        ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)],
        ["scan", "--n", "2", "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "3",
         "--k-matrix", str(matrix_file)],
    ):
        status, out, err = invoke(argv, capsys)
        assert (status, out) == (1, "")
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["--t-max", "nan"], ["--t-max", "inf"], ["--t-steps", "-1"]],
)
def test_evolve_bad_time_grid_is_a_domain_error_without_output(argv, capsys):
    status, out, err = invoke(["evolve", "--n", "3", *argv], capsys)
    assert (status, out) == (1, "")
    assert err.startswith("error: ")


def test_evolve_negative_t_steps_is_one_error_line_naming_the_option(capsys):
    status, out, err = invoke(["evolve", "--n", "3", "--t-steps", "-1"], capsys)
    assert (status, out) == (1, "")
    assert err.count("\n") == 1 and "--t-steps" in err


@pytest.mark.parametrize(
    "argv",
    [["horizon", "--n", "2", "--format", "csv"], ["metric", "--n", "2", "--format", "json"],
     ["spectrum", "--n", "2", "--seed", "1"], ["verify", "--seed", "3"]],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    status, out, _ = invoke(argv, capsys)
    assert (status, out) == (2, "")


def _python(*args, check=True):
    """Run a fresh interpreter that imports this qtlattice."""
    source_root = str(Path(qtlattice.__file__).resolve().parents[1])
    path = os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=check
    )


def test_evolve_infinite_t_max_prints_only_the_error():
    # numpy's linspace warns on an infinite endpoint, so the check must come first
    result = _python("-m", "qtlattice.cli", "evolve", "--n", "3", "--t-max", "inf", check=False)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.splitlines() == ["error: --t-max is not finite (NaN or inf)"]


def test_scan_overflow_names_the_alpha_grid(capsys):
    """alpha t is finite at 5e307 and N = 4, but the scan's singular tolerance overflows."""
    argv = ["scan", "--n", "4", "--alpha-min", "0", "--alpha-max", "5e307", "--alpha-steps", "3"]
    status, out, err = invoke(argv, capsys)
    assert (status, out) == (1, "")
    assert err == "error: the singular tolerance of the alpha grid is not finite (NaN or inf)\n"


def test_failed_command_leaves_out_file_untouched(capsys, tmp_path):
    out_file = tmp_path / "theta.json"
    out_file.write_text('{"kept": true}\n')
    status, out, err = invoke(
        ["metric", "--n", "2", "--alpha", "2.0", "--require-positive", "--out", str(out_file)],
        capsys,
    )
    assert (status, out) == (1, "")
    assert err.startswith("error: ")
    assert out_file.read_text() == '{"kept": true}\n'


@pytest.mark.parametrize(
    "argv",
    [
        "evolve --n 4 --t-steps 1000000000000000",
        "scan --n 4 --alpha-min 0 --alpha-max 1 --alpha-steps 1000000000000000",
    ],
)
def test_an_impossible_allocation_is_one_error_line(argv, capsys):
    # 10**15 float64 steps need 7.1 PiB, beyond the address space, so the
    # allocation fails at once and maps no memory
    status, out, err = invoke(argv.split(), capsys)
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unopenable_out_file_is_a_domain_error(capsys, tmp_path):
    status, out, err = invoke(
        ["spectrum", "--n", "2", "--out", str(tmp_path / "missing" / "x")], capsys
    )
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_import_loads_neither_sympy_nor_mpmath():
    code = (
        "import sys, qtlattice, qtlattice.cli; print([m for m in "
        "('numpy', 'scipy', 'sympy', 'mpmath', 'concurrent.futures') if m in sys.modules])"
    )
    assert _python("-c", code).stdout.strip() == "[]"
    # parsing and the exact oracle need no numpy: usage errors, --help and verify
    code = (
        "import sys; from qtlattice.cli import run; status = run(sys.argv[1:]); "
        "print(status, 'numpy' in sys.modules, file=sys.stderr)"
    )
    for argv, status in [
        ("verify --n-max 12", 0),
        ("--help", 0),
        ("spectrum --n 0", 2),
        ("verify --n-max 0", 2),
        ("verify --n-max -5", 2),
        ("spectrum --n 3 --tol-x abc", 2),
    ]:
        assert _python("-c", code, *argv.split()).stderr.splitlines()[-1] == f"{status} False"
    # a scan whose points fit in one stack starts no thread pool, and the
    # exact oracle runs without sympy
    code = (
        "import sys; from qtlattice.cli import run; status = run(sys.argv[1:]); "
        "print(status, [m for m in ('sympy', 'mpmath', 'concurrent.futures') if m in sys.modules], "
        "file=sys.stderr)"
    )
    for argv in ["scan --n 8 --alpha-min 0 --alpha-max 2 --alpha-steps 1200", "verify --n-max 12"]:
        assert _python("-c", code, *argv.split()).stderr.strip() == "0 []"


def test_import_registers_the_library_modules_without_numpy():
    # a tracer finds the modules in sys.modules; none of them has run yet
    code = (
        "import sys, qtlattice; print('numpy' in sys.modules, "
        "' '.join(sorted(m for m in sys.modules if m.startswith('qtlattice.'))))"
    )
    loaded, modules = _python("-c", code).stdout.split(maxsplit=1)
    assert loaded == "False"
    library = "tridiagonal legendre lattice metrics horizons observables evolution exact"
    assert {f"qtlattice.{m}" for m in library.split()} <= set(modules.split())


def test_package_names_follow_their_home_module(monkeypatch):
    # a function replaced in its module after the package import is what the package returns
    def fake_roots(N):
        raise AssertionError

    assert qtlattice.roots_P is qtlattice.legendre.roots_P
    monkeypatch.setattr(qtlattice.legendre, "roots_P", fake_roots)
    assert qtlattice.roots_P is fake_roots


# Every subcommand, with valid input; {k} is the file of a 4 x 4 observable.
EVERY_COMMAND = [
    "spectrum --n 4",
    "metric --n 4 --alpha 0.3",
    "charge --n 4 --kappa exceptional",
    "evolve --n 4 --t-steps 5",
    "scan --n 4 --alpha-min -1 --alpha-max 1 --alpha-steps 5",
    "horizon --n 8",
    "check-observability --n 4 --k-matrix {k}",
    "verify --n-max 4",
]


@pytest.fixture
def k_file(tmp_path):
    path = tmp_path / "k.json"
    H = dense_hamiltonian(4)
    path.write_text(json.dumps({"dimension": 4, "matrix": H.tolist()}))
    return str(path)


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_commands_that_need_no_scipy_do_not_load_it(argv, k_file):
    code = (
        "import sys; from qtlattice.cli import run; status = run(sys.argv[1:]); "
        "print(status, 'scipy' in sys.modules, file=sys.stderr)"
    )
    argv = [arg.format(k=k_file) for arg in argv.split()]
    assert _python("-c", code, *argv).stderr.strip() == "0 False"


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_every_command_runs_with_scipy_blocked(argv, k_file):
    """scipy is a test dependency only: importing any part of it fails here."""
    code = "import sys; sys.modules['scipy'] = None; from qtlattice.cli import main; main()"
    result = _python("-c", code, *[arg.format(k=k_file) for arg in argv.split()], check=False)
    assert (result.returncode, result.stderr) == (0, "")
    if argv.startswith("check-observability"):
        assert json.loads(result.stdout)["product_hermitian"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3", "--form", "csv"],
        ["check-observability", "--n", "6", "--k-matrix", "F", "--tol", "1e-3"],
    ],
)
def test_abbreviated_options_are_usage_errors(argv, capsys):
    status, out, err = invoke(argv, capsys)
    assert (status, out) == (2, "")
    assert "unrecognized arguments" in err


# subcommand -> (required flags, optional flags)
FUZZ_FLAGS = {
    "spectrum": ([], ["--format"]),
    "metric": ([], ["--alpha", "--kappa", "--require-positive"]),
    "charge": ([], ["--alpha", "--kappa"]),
    "horizon": ([], []),
    "scan": (["--alpha-min", "--alpha-max", "--alpha-steps"], ["--k-matrix"]),
    "check-observability": (["--k-matrix"], ["--kappa", "--tol-criterion"]),
    "evolve": ([], ["--t-max", "--t-steps", "--kappa"]),
    "verify": ([], ["--n-max"]),
}
FUZZ_VALUES = ["0", "1", "-1", "0.5", "1e300", "nan", "inf", "-inf", "abc", "", "1,-1",
               "exceptional"]
# counts stay <= 2000 so that no draw allocates a large grid
FUZZ_COUNTS = ["-1", "0", "1", "2", "7", "2000", "nan", "abc"]


@pytest.fixture(scope="module")
def fuzz_matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "eye2.json": json.dumps({"dimension": 2, "matrix": np.eye(2).tolist()}),
        "diag3.json": json.dumps({"dimension": 3, "matrix": np.diag([1.0, -1.0, 2.0]).tolist()}),
        "nan2.json": '{"dimension": 2, "matrix": [[1.0, NaN], [NaN, 1.0]]}',
        "list.json": "[[1.0, 0.0], [0.0, 1.0]]",
        "nokey.json": '{"dimension": 2}',
        "garbage.json": "{matrix",
    }
    for name, text in contents.items():
        (root / name).write_text(text)
    return [str(root / name) for name in contents] + [str(root / "missing.json")]


def _fuzz_value(draw, flag, matrix_files):
    if flag == "--k-matrix":
        return draw(st.sampled_from(matrix_files))
    if flag in ("--alpha-steps", "--t-steps", "--n-max"):
        return draw(st.sampled_from(FUZZ_COUNTS))
    return draw(st.sampled_from(FUZZ_VALUES))


@pytest.mark.parametrize("subcommand", sorted(FUZZ_FLAGS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_status_and_clean_stdout(subcommand, fuzz_matrix_files, data):
    """Any argv: status 0, 1 or 2, no escaping exception, no stdout on failure."""
    required, optional = FUZZ_FLAGS[subcommand]
    argv = [subcommand]
    if subcommand != "verify":
        argv += ["--n", data.draw(st.sampled_from(["1", "2", "3", "64"]))]
    for flag in required + [f for f in optional if data.draw(st.booleans())]:
        argv.append(flag)
        if flag != "--require-positive":
            argv.append(_fuzz_value(data.draw, flag, fuzz_matrix_files))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    assert status in (0, 1, 2), (argv, status)
    if status != 0:
        assert out.getvalue() == "", argv


def test_csv_fields_are_numbers(capsys):
    outputs = [
        invoke(["spectrum", "--n", "4", "--format", "csv"], capsys),
        invoke(
            ["scan", "--n", "3", "--alpha-min", "0", "--alpha-max", "1.5", "--alpha-steps", "7"],
            capsys,
        ),
        invoke(["evolve", "--n", "3", "--t-max", "1", "--t-steps", "4"], capsys),
    ]
    for status, out, _ in outputs:
        assert status == 0
        header, *rows = out.strip().split("\n")
        numeric = [name for name in header.split(",") if name != "definiteness"]
        assert rows
        for row in rows:
            for field in row.split(",")[: len(numeric)]:
                float(field)


@pytest.mark.parametrize(
    "tolerance",
    [["--tol-x", "abc"], ["--tol-criterion", "abc"], ["--tol-criterion", "nan"],
     ["--tol-criterion"], ["--tol-bogus", "1e-3"]],
)
def test_tolerance_usage_errors(tolerance, capsys):
    status, out, err = invoke(["spectrum", "--n", "3", *tolerance], capsys)
    assert (status, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize("subcommand", ["spectrum", "horizon"])
def test_tolerance_outside_check_observability_is_a_usage_error(subcommand, capsys):
    status, out, err = invoke([subcommand, "--n", "3", "--tol-criterion", "1e-3"], capsys)
    assert (status, out) == (2, "")
    assert "unrecognized arguments: --tol-criterion" in err


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-3"])
def test_tol_criterion_must_be_positive_and_finite(value, capsys, tmp_path):
    matrix_file = tmp_path / "eye.json"
    matrix_file.write_text(json.dumps({"dimension": 2, "matrix": np.eye(2).tolist()}))
    argv = ["check-observability", "--n", "2", "--k-matrix", str(matrix_file)]
    status, out, err = invoke(argv + ["--tol-criterion", value], capsys)
    assert (status, out) == (2, "")
    assert "argument --tol-criterion" in err
    status, out, _ = invoke(argv + ["--tol-criterion", "1e-3"], capsys)
    assert status == 0
    assert json.loads(out)["tolerance"] == 1e-3


@pytest.mark.parametrize(
    "argv",
    ["metric --n 4", "charge --n 4", "evolve --n 4", "check-observability --n 4 --k-matrix {k}"],
)
def test_an_empty_kappa_is_a_domain_error_in_every_subcommand(argv, k_file, capsys):
    """One resolver reads --kappa everywhere: an empty list is no metric, not "use Q"."""
    argv = [arg.format(k=k_file) for arg in argv.split()]
    status, out, err = invoke(argv + ["--kappa="], capsys)
    assert (status, out) == (1, "")
    assert err == "error: could not convert string to float: ''\n"


def _reference_spectrum(N):
    roots = qtlattice.spectrum(qtlattice.build_hamiltonian(N)).roots
    return "eigenvalue\n" + "".join(f"{float(value)!r}\n" for value in roots)


def _reference_scan(N, K, grid):
    import qtlattice as qt

    scan = qt.hidden_horizon_scan(N, K, grid)
    lines = ["alpha,max_imag,definiteness\n"]
    for alpha, imag, label in zip(scan.alpha_grid, scan.max_imag, scan.definiteness):
        imag_text = "" if np.isnan(imag) else repr(float(imag))
        lines.append(f"{float(alpha)!r},{imag_text},{label}\n")
    return "".join(lines)


def _reference_evolve(N, t_grid, kappa=None):
    import qtlattice as qt

    system = qt.biorthogonal_system(N)
    if kappa is None:
        theta = qt.MetricOperator(np.diag(qt.build_metric_Q(N)), "diagonal-Q")
    else:
        theta = qt.metric_from_kappa(system, qt.KappaVector(N, kappa))
    psi0 = qt.EvolutionState(N, np.ones(N) / np.sqrt(N))
    norms = qt.norm_trajectory(system, theta, psi0, t_grid)
    rows = zip(t_grid.tolist(), norms[0].tolist(), norms[1].tolist())
    return "t,theta_norm,dirac_norm\n" + "".join("%r,%r,%r\n" % row for row in rows)


def _reference_report(Lambda):
    import qtlattice as qt

    N = len(Lambda)
    system = qt.biorthogonal_system(N)
    kappa = qt.exceptional_kappa(system)
    theta = qt.metric_from_kappa(system, kappa)
    residual = qt.dieudonne_residual(Lambda, theta)
    pair = qt.overlap_matrices(system, kappa, qt.spectral_data(Lambda))
    report = {
        "dimension": N,
        "dieudonne_residual": residual,
        "tolerance": 1e-10,
        "hermiticity_residual": pair.hermiticity_residual,
        "product_hermitian": qt.criterion_product_hermitian(pair, 1e-10),
        "observable": residual <= 1e-10,
    }
    return json.dumps(report, indent=2) + "\n"


_OBSERVABLE = dense_hamiltonian(4)
_PERTURBED = _OBSERVABLE + 1e-3 * np.array(
    [[0.3, -1.0, 0.2, 0.0], [0.5, 0.1, -0.4, 0.7], [0.0, 0.9, -0.2, 0.1], [0.6, 0.0, 0.8, -0.5]]
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("spectrum --n 6 --format csv", lambda: _reference_spectrum(6)),
        # the middle point, alpha = gamma(2), is singular and skipped: an empty field
        (
            "scan --n 2 --alpha-min 0 --alpha-max 1.7320508075688772 --alpha-steps 3",
            lambda: _reference_scan(2, np.eye(2), np.linspace(0.0, 1.7320508075688772, 3)),
        ),
        (
            "scan --n 4 --alpha-min -1 --alpha-max 1 --alpha-steps 9 --k-matrix {k}",
            lambda: _reference_scan(4, np.eye(4), np.linspace(-1.0, 1.0, 9)),
        ),
        (
            "evolve --n 4 --t-max 3 --t-steps 7",
            lambda: _reference_evolve(4, np.linspace(0.0, 3.0, 7)),
        ),
        (
            "evolve --n 4 --t-max 3 --t-steps 7 --kappa 1,2,0.5,3",
            lambda: _reference_evolve(4, np.linspace(0.0, 3.0, 7), [1.0, 2.0, 0.5, 3.0]),
        ),
        ("check-observability --n 4 --k-matrix {h}", lambda: _reference_report(_OBSERVABLE)),
        ("check-observability --n 4 --k-matrix {p}", lambda: _reference_report(_PERTURBED)),
    ],
)
def test_outputs_are_the_library_results_in_the_documented_format(argv, expected, tmp_path, capsys):
    """CSV: the repr of each float, an empty field for NaN; reports: indented JSON."""
    paths = {}
    for name, matrix in {"k": np.eye(4), "h": _OBSERVABLE, "p": _PERTURBED}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"dimension": 4, "matrix": matrix.tolist()}))
    argv = [arg.format(**paths) for arg in argv.split()]
    status, out, err = invoke(argv, capsys)
    assert (status, err) == (0, "")
    assert out == expected()


def test_a_numerical_subcommand_without_numpy_is_one_error_line():
    code = (
        "import sys; sys.modules['numpy'] = None; from qtlattice.cli import run; "
        "print(run(['spectrum', '--n', '3']))"
    )
    result = _python("-c", code, check=False)
    assert (result.returncode, result.stdout) == (0, "1\n")
    assert result.stderr.splitlines() == ["error: import of numpy halted; None in sys.modules"]


def test_a_module_that_failed_to_execute_raises_the_same_error_on_every_access():
    # a lazy module whose first execution failed is put back unexecuted, as
    # an eager import leaves no half-initialised module behind
    code = (
        "import sys; sys.modules['numpy'] = None; import qtlattice\n"
        "for name in ('roots_P', 'roots_P', 'legendre.roots_P', 'lattice.spectrum'):\n"
        "    try:\n"
        "        eval('qtlattice.' + name)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "del sys.modules['numpy']\n"
        "print(qtlattice.legendre.roots_P(3).roots.tolist() == qtlattice.roots_P(3).roots.tolist())"
    )
    lines = _python("-c", code).stdout.splitlines()
    assert lines[:4] == ["ModuleNotFoundError import of numpy halted; None in sys.modules"] * 4
    assert lines[4:] == ["True"]
