import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
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
    H = qt.build_hamiltonian(3).to_dense()
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
        assert "non-finite" in err


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
    assert result.stderr.splitlines() == ["error: --t-max must be finite"]


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


def test_unopenable_out_file_is_a_domain_error(capsys, tmp_path):
    status, out, err = invoke(
        ["spectrum", "--n", "2", "--out", str(tmp_path / "missing" / "x")], capsys
    )
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_import_loads_neither_sympy_nor_mpmath():
    code = (
        "import sys, qtlattice, qtlattice.cli; "
        "print([m for m in ('scipy', 'sympy', 'mpmath') if m in sys.modules])"
    )
    assert _python("-c", code).stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        "spectrum --n 4",
        "metric --n 4 --alpha 0.3",
        "charge --n 4 --kappa exceptional",
        "evolve --n 4 --t-steps 5",
        "scan --n 4 --alpha-min -1 --alpha-max 1 --alpha-steps 5",
    ],
)
def test_commands_that_need_no_scipy_do_not_load_it(argv):
    code = (
        "import sys; from qtlattice.cli import run; status = run(sys.argv[1:]); "
        "print(status, 'scipy' in sys.modules, file=sys.stderr)"
    )
    assert _python("-c", code, *argv.split()).stderr.strip() == "0 False"


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
