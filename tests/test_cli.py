"""End-to-end tests of the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from discordkit import BlochParams, cli, discord_auto, maximize_correlation_objective
from discordkit.cli import main
from discordkit.sampling import draw_s0_isotropic, draw_s0_planar

REF_A_FLAGS = ["--r", "0,0,0", "--s", "0.1,0.2,0.2", "--c", "0.3,0.3,0.3"]
REF_B_FLAGS = ["--r", "0.1,0.2,0", "--s", "0,0,0", "--c", "0.3,0.3,0"]
# The s = 0, uniform-c state of the README's curve example.
S0_ISO_FLAGS = ["--r", "0,0,0.3", "--s", "0,0,0", "--c", "0.2,0.2,0.2"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_report(capsys):
    code, out, _ = run_cli(capsys, "compute", *REF_A_FLAGS, "--label", "ref-a")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "ref-a"
    assert payload["method"] == "r0-isotropic"
    assert payload["params"]["s"] == [0.1, 0.2, 0.2]
    assert len(payload["spectrum"]) == 4
    assert len(payload["argmax_axis"]) == 3
    assert payload["discord"] == pytest.approx(
        payload["mutual_info"] - payload["classical_corr"], abs=1e-12
    )
    np.testing.assert_allclose(
        sorted(payload["spectrum"], reverse=True),
        [0.4, 0.3427, 0.25, 0.0073],
        atol=5e-4,
    )


def test_compute_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "compute", *REF_A_FLAGS)
    assert code == 0
    rendered = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert rendered == out


def test_compute_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "compute", *REF_B_FLAGS)
    _, second, _ = run_cli(capsys, "compute", *REF_B_FLAGS)
    assert first == second


def test_compute_csv_format(capsys):
    code, out, _ = run_cli(capsys, "compute", *REF_B_FLAGS, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mutual_info,classical_corr,discord,method"
    fields = lines[1].split(",")
    assert fields[3] == "s0-planar"
    assert float(fields[2]) == pytest.approx(
        float(fields[0]) - float(fields[1]), abs=1e-12
    )


def test_compute_numeric_flag_forces_path(capsys):
    code, out, _ = run_cli(capsys, "compute", *REF_B_FLAGS, "--numeric")
    assert code == 0
    assert json.loads(out)["method"] == "numeric"


def test_compute_trivial_state(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--r", "0,0,0", "--s", "0,0,0", "--c", "0,0,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mutual_info"] == pytest.approx(0.0, abs=1e-12)
    assert payload["classical_corr"] == pytest.approx(0.0, abs=1e-12)
    assert payload["discord"] == pytest.approx(0.0, abs=1e-12)


def test_compute_state_file_and_flag_precedence(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(
        json.dumps({"r": [0, 0, 0], "s": [0, 0, 0], "c": [0.25, 0.25, 0.25],
                    "label": "from-file"})
    )
    code, out, _ = run_cli(capsys, "compute", "--state", str(state))
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "from-file"
    assert payload["method"] == "werner"
    # explicit flag overrides the file entry
    code, out, _ = run_cli(
        capsys, "compute", "--state", str(state), "--c", "0,0,0"
    )
    assert json.loads(out)["discord"] == pytest.approx(0.0, abs=1e-12)


def test_compute_malformed_triple_exits_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--r", "0.1,0.2", "--s", "0,0,0",
                           "--c", "0,0,0")
    assert code == 2
    assert "expected 3 comma-separated reals" in err


@pytest.mark.parametrize(
    "flags, payload, message",
    [
        (["--r", "nan,0,0", "--s", "0,0,0", "--c", "0,0,0"], None, "r must be finite"),
        ([], [0.1, 0.2, 0.3], "must hold a JSON object"),
        ([], {"r": [0.1, 0.2], "s": [0, 0, 0], "c": [0, 0, 0]}, "r must be a real 3-vector"),
        ([], {"r": "abc", "s": [0, 0, 0], "c": [0, 0, 0]}, "could not convert"),
    ],
    ids=["nan-flag", "json-list", "short-vector", "string-vector"],
)
def test_compute_malformed_state_exits_2(tmp_path, capsys, flags, payload, message):
    if payload is not None:
        state = tmp_path / "state.json"
        state.write_text(json.dumps(payload))
        flags = ["--state", str(state)]
    code, out, err = run_cli(capsys, "compute", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_compute_non_numeric_component_exits_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--r", "0.1,x,0.2", "--s", "0,0,0",
                           "--c", "0,0,0")
    assert code == 2
    assert "component 2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", *REF_A_FLAGS, "--grid-points", "0"], "expected a positive integer"),
        (["compute", *REF_A_FLAGS, "--refine-rounds", "0"], "expected a positive integer"),
        (["curve", *REF_A_FLAGS, "--samples", "-1"], "expected a positive integer"),
        (["verify", "--draws", "-3"], "expected a positive integer"),
        (["damp", *REF_B_FLAGS, "--gamma-grid", "0:1:0.5", "--grid-points", "x"],
         "expected an integer"),
        (["verify", "--seed", "-1"], "expected a non-negative integer, got -1"),
        (["verify", "--tolerance", "nan"], "expected a non-negative number, got nan"),
        (["verify", "--tolerance", "-1"], "expected a non-negative number, got -1.0"),
    ],
    ids=["grid-points", "refine-rounds", "samples", "draws", "non-integer",
         "negative-seed", "nan-tolerance", "negative-tolerance"],
)
def test_non_positive_integer_flags_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert message in line


def test_compute_unphysical_exits_1(capsys):
    code, _, err = run_cli(capsys, "compute", "--r", "0,0,0", "--s", "0,0,0",
                           "--c", "1,1,1")
    assert code == 1
    assert "unphysical" in err


def test_compute_werner_just_past_bound_exits_0(capsys):
    """c = 1/3 + 1e-10 passes the PSD gate, so the Werner route answers."""
    c = "0.3333333334333333"
    code, out, _ = run_cli(capsys, "compute", "--r=0,0,0", "--s=0,0,0",
                           f"--c={c},{c},{c}")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "werner"
    assert payload["discord"] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_compute_numeric_just_past_singlet_bound_exits_0(capsys):
    """c = -1 - 1e-10 passes the PSD gate, so the numeric route answers."""
    c = "-1.0000000001"
    code, out, _ = run_cli(capsys, "compute", "--numeric", "--r=0,0,0", "--s=0,0,0",
                           f"--c={c},{c},{c}")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "numeric"
    assert payload["discord"] == pytest.approx(1.0, abs=1e-6)


def test_compute_closed_form_below_zero_eigenvalue_exits_0(capsys):
    """lambda_min = -5e-10 passes the PSD gate, so the s0-isotropic closed
    form answers too, and agrees with the numeric route."""
    c = "0.3104402645750132"
    flags = ["--r=0,0,0.3", "--s=0,0,0", f"--c={c},{c},{c}"]
    code, out, _ = run_cli(capsys, "compute", *flags)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "s0-isotropic"
    assert -1e-9 <= min(payload["spectrum"]) < 0.0
    code, out, _ = run_cli(capsys, "compute", "--numeric", *flags)
    assert code == 0
    assert payload["discord"] == pytest.approx(json.loads(out)["discord"], abs=1e-8)


def _curve(capsys, *argv):
    code, out, _ = run_cli(capsys, "curve", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,G"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_curve_uniform_c_shape(capsys):
    rows = _curve(capsys, *S0_ISO_FLAGS, "--samples", "101")
    assert rows.shape == (101, 2)
    theta, g = rows[:, 0], rows[:, 1]
    assert np.all(np.diff(theta) > 0)
    # the attainable range [(|r|-|c|)^2, (|r|+|c|)^2] = [0.01, 0.25]
    assert (theta[0], theta[-1]) == pytest.approx((0.01, 0.25), abs=1e-15)
    # interior minimum at |r|^2 + c^2 = 0.13, decreasing then increasing
    k = int(np.argmin(g))
    assert theta[k] == pytest.approx(0.13, abs=2e-3)
    assert np.all(np.diff(g[: k + 1]) <= 1e-15)
    assert np.all(np.diff(g[k:]) >= -1e-15)


def test_curve_zero_c_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--r", "0,0,0.4", "--s", "0,0,0", "--c", "0,0,0"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    theta, _ = (float(v) for v in lines[1].split(","))
    assert theta == pytest.approx(0.16, abs=1e-15)


def test_curve_planar_family_maximum(capsys):
    code, out, _ = run_cli(capsys, "curve", *REF_B_FLAGS, "--samples", "400")
    assert code == 0
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    )
    # the curve maximum is the sphere maximum of the objective
    assert rows[:, 1].max() == pytest.approx(0.10609271271085241, abs=1e-5)


def _state_flags(params: BlochParams) -> list[str]:
    return [f"--{k}={','.join(repr(float(x)) for x in getattr(params, k))}" for k in "rsc"]


@pytest.mark.parametrize(
    "params",
    [
        # the README example; its curve peaked at 0.098332 over the 0.097974 maximum
        BlochParams([0, 0, 0.3], [0, 0, 0], [0.2, 0.2, 0.2]),
        # small c; 0.2018 over 0.1911
        BlochParams([0.5, 0, 0], [0, 0, 0], [0.05, 0.05, 0.05]),
        # Werner: the attainable range is the point theta = c^2
        BlochParams([0, 0, 0], [0, 0, 0], [0.2, 0.2, 0.2]),
    ],
    ids=["readme", "small-c", "werner"],
)
def test_curve_uniform_c_maximum_is_the_sphere_maximum(capsys, params):
    """The curve spans only attainable theta, so it never overshoots."""
    rows = _curve(capsys, *_state_flags(params))
    assert rows[:, 1].max() == pytest.approx(
        maximize_correlation_objective(params).value, abs=1e-9
    )


@pytest.mark.parametrize("draw", [draw_s0_isotropic, draw_s0_planar])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curve_maximum_matches_sphere_maximum_on_draws(capsys, draw, seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        params = draw(rng)
        rows = _curve(capsys, *_state_flags(params), "--samples", "50")
        assert rows[:, 1].max() == pytest.approx(
            maximize_correlation_objective(params).value, abs=1e-9
        )


@pytest.mark.parametrize(
    "flags",
    [REF_A_FLAGS, ["--r", "0.1,0,0", "--s", "0,0.2,0", "--c", "0.3,0.3,0.3"]],
    ids=["r0-isotropic", "both-marginals"],
)
def test_curve_rejects_uniform_c_with_nonzero_s(capsys, flags):
    """The theta reduction holds for s = 0 only."""
    code, out, err = run_cli(capsys, "curve", *flags)
    assert code == 2
    assert out == ""
    assert "s = 0" in err


@pytest.mark.parametrize(
    "flags",
    [["--r", "0,0,0", "--s", "0,0,0", "--c", "0.9,0.9,0.9"],
     ["--r", "0.9,0,0", "--s", "0,0,0", "--c", "0.5,0.5,0"]],
    ids=["uniform-c", "planar"],
)
def test_curve_unphysical_exits_1(capsys, flags):
    code, out, err = run_cli(capsys, "curve", *flags)
    assert code == 1
    assert out == ""
    assert "unphysical" in err


def test_curve_rejects_general_state(capsys):
    code, _, err = run_cli(
        capsys, "curve", "--r", "0,0,0", "--s", "0.1,0,0", "--c", "0.1,0.2,0.3"
    )
    assert code == 2
    assert "correlation diagonal" in err


def test_damp_werner_monotone_gap(capsys):
    code, out, _ = run_cli(
        capsys, "damp", "--r", "0,0,0", "--s", "0,0,0", "--c", "0.25,0.25,0.25",
        "--gamma-grid", "0:1:0.1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,Q_damped,Q_gap"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (11, 3)
    gaps = rows[:, 2]
    assert gaps[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(np.diff(gaps) >= -1e-9)


def test_damp_invariant_family(capsys):
    code, out, _ = run_cli(
        capsys, "damp", "--r", "0.3,0,0.2", "--s", "0,0,0", "--c", "0,0,0.4",
        "--gamma-grid", "0:0.9:0.3"
    )
    assert code == 0
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    )
    assert np.all(np.abs(rows[:, 2]) <= 1e-9)


def test_damp_bad_grid_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "damp", *REF_B_FLAGS, "--gamma-grid", "0.5:0.2:0.1"
    )
    assert code == 2
    assert "start" in err


@pytest.mark.parametrize("grid", ["0:1:inf", "nan:1:0.1", "0:nan:0.1", "0:1:nan"])
def test_damp_non_finite_grid_bound_exits_2(capsys, grid):
    # an infinite step would make the grid's first gamma inf * 0 = nan, and
    # a nan bound must not reach argparse's generic "invalid value" message
    code, out, err = run_cli(capsys, "damp", *REF_B_FLAGS, "--gamma-grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: gamma grid bounds must be finite, got {grid!r}\n"


def test_damp_grid_ending_an_ulp_past_stop_exits_0(capsys):
    # 0.09 + 13 * 0.07 rounds to 1.0000000000000002; the grid ends at stop
    code, out, _ = run_cli(
        capsys, "damp", "--r=0.1,0.2,0.3", "--s=0.1,0,0.2", "--c=0.2,-0.1,0.3",
        "--gamma-grid", "0.09:1:0.07"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 14
    assert float(rows[0][0]) == 0.09 and float(rows[-1][0]) == 1.0


def test_damp_output_uses_17_digit_floats(capsys):
    _, out, _ = run_cli(
        capsys, "damp", "--r", "0,0,0", "--s", "0,0,0", "--c", "0.2,0.2,0.2",
        "--gamma-grid", "0.3:0.3:0.1"
    )
    value = out.splitlines()[1].split(",")[1]
    assert value == format(float(value), ".17g")
    assert "," not in value.replace(",", "", 0) or "." in value


def test_parser_built_once_gives_the_output_of_a_fresh_parser(capsys, monkeypatch):
    """main parses with one parser per process; a usage error on it leaves
    nothing behind for the next call."""
    damp = ["damp", "--r", "0.1,0.2,0.1", "--s", "0.2,-0.1,0.3", "--c", "0.3,0.2,-0.1",
            "--gamma-grid", "0:1:0.25"]
    calls = [damp, ["damp", "--r", "0,0", "--gamma-grid", "0:1:0.5"],
             ["compute", "--numeric", *REF_A_FLAGS], damp]
    cached = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in cached] == [0, 2, 0, 0]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    for argv, (code, out) in zip(calls, cached):
        fresh_code, fresh_out = run_cli(capsys, *argv)[:2]
        assert fresh_code == code and fresh_out.encode() == out.encode()


def test_spectrum_command(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--r=0,0,0", "--s=0,0,0",
                           "--c=-1,-1,-1")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["eigenvalues"], [1, 0, 0, 0], atol=1e-12)
    top = np.array(payload["eigenvectors"][0]["re"]) + 1j * np.array(
        payload["eigenvectors"][0]["im"]
    )
    expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(top, expected, atol=1e-12)


def test_verify_passes_on_default_families(capsys):
    code, out, _ = run_cli(capsys, "verify", "--draws", "5")
    assert code == 0
    assert "s0-isotropic" in out
    assert "FAIL" not in out


def test_verify_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--draws", "3")
    _, second, _ = run_cli(capsys, "verify", "--draws", "3")
    assert first == second


def test_verify_rejects_the_removed_axial_formula_family(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--draws", "3", "--families", "axial-formula"
    )
    assert code == 2
    assert out == ""
    assert "invalid choice: 'axial-formula'" in err


@pytest.mark.parametrize("family", ["s0-isotropic", "r0-isotropic", "axial-zero", "s0-planar"])
def test_verify_draws_dispatch_to_their_family(family):
    """Each family's seeded draws reach that family's closed form, so verify
    checks the route ``compute`` serves."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert discord_auto(cli._VERIFY_SAMPLERS[family](rng)).method == family


def test_verify_fails_on_impossible_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--draws", "3", "--tolerance", "0",
        "--families", "s0-isotropic"
    )
    assert code == 3
    assert "FAIL" in out


def test_verify_fails_on_a_nan_closed_form(capsys, monkeypatch):
    from discordkit import discord as discord_module

    monkeypatch.setattr(discord_module, "discord_s0_planar", lambda r, c: float("nan"))
    code, out, _ = run_cli(
        capsys, "verify", "--draws", "3", "--families", "s0-planar", "s0-isotropic"
    )
    assert code == 3
    assert "s0-planar: max deviation nan -> FAIL" in out
    assert "s0-isotropic: max deviation" in out and out.count("FAIL") == 1


def test_verify_matches_one_draw_at_a_time(capsys):
    """Batched verify consumes the generator as serial draws do, and its
    values are the closed forms against the oracle one state at a time."""
    from discordkit import discord_numeric, discord_r0_isotropic, discord_s0_planar
    from discordkit.sampling import draw_r0_isotropic, draw_s0_planar

    _, out, _ = run_cli(capsys, "verify", "--draws", "6", "--seed", "5",
                        "--families", "s0-planar", "r0-isotropic")
    rng = np.random.default_rng(5)
    planar = 0.0
    for _ in range(6):
        p = draw_s0_planar(rng)
        deviation = discord_s0_planar(p.r, p.c[0]) - discord_numeric(p).discord
        planar = max(planar, abs(deviation))
    rng = np.random.default_rng(5)
    iso = 0.0
    for _ in range(6):
        p = draw_r0_isotropic(rng)
        deviation = discord_r0_isotropic(p.s_norm, p.c[2]) - discord_numeric(p).discord
        iso = max(iso, abs(deviation))
    lines = out.splitlines()
    assert lines[1] == f"s0-planar: max deviation {format(planar, '.17g')} -> ok"
    assert lines[2] == f"r0-isotropic: max deviation {format(iso, '.17g')} -> ok"
    assert len(lines) == 3


def _readme_command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("discord-kit")]


def test_readme_command_lines_exit_0(tmp_path, capsys):
    state = tmp_path / "mystate.json"
    state.write_text(json.dumps({"r": [0.1, 0.2, 0], "s": [0, 0, 0], "c": [0.3, 0.3, 0]}))
    lines = _readme_command_lines()
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line.replace("mystate.json", str(state)))[1:]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        assert out
