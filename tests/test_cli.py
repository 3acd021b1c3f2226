"""End-to-end checks of the command line front end.

Everything runs main() in process so exit codes, stdout and --output
files can be inspected without spawning subprocesses.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math

import pytest

import fansq.errors
from fansq.cli import _axis_range, build_parser, main
from fansq.fanstate import FanConfig, Identity, SeriesControl
from fansq.squeeze import coefficients, squeeze_parameter


def run_cli(capsys, argv, expect=0):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expect, err
    return out, err


def run_json(capsys, argv):
    out, _ = run_cli(capsys, argv)
    doc = json.loads(out)
    assert set(doc) == {"manifest", "data"}
    return doc


def manifest_of_csv(text: str) -> dict:
    first = text.splitlines()[0]
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


# ---------------------------------------------------------------------------
# squeeze


def test_squeeze_matches_library_value_exactly(capsys):
    doc = run_json(
        capsys,
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.5",
         "--phi", str(math.pi / 4)],
    )
    data = doc["data"]
    assert data["model"] == "identity"
    assert data["below_min_order"] is False
    assert "note" not in data

    cfg = FanConfig.from_xi_sq(1, 0.5, Identity())
    coeffs = coefficients(cfg, 4)
    want = squeeze_parameter(coeffs, math.pi / 4)
    # json round-trips shortest-repr floats, so equality is exact
    assert data["evaluations"][0]["squeeze"] == want
    assert data["constant"] == coeffs.constant
    assert data["harmonics"] == list(coeffs.harmonics)
    assert data["evaluations"][0]["raw_moment"] == pytest.approx(
        want + data["benchmark"], rel=1e-15
    )
    assert want == pytest.approx(-0.047067493497009574, rel=1e-12)


def test_squeeze_below_min_order_flagged_not_fatal(capsys):
    doc = run_json(
        capsys,
        ["squeeze", "--k", "2", "--N", "4", "--xi-sq", "0.3", "--phi", "0.0"],
    )
    data = doc["data"]
    assert data["min_order"] == 8
    assert data["below_min_order"] is True
    assert data["note"] == "below minimum order 8"
    assert data["harmonics"] == []
    for entry in data["evaluations"]:
        assert entry["squeeze"] > 0


def test_squeeze_sampling_without_phi(capsys):
    doc = run_json(
        capsys,
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--samples", "5"],
    )
    phis = [e["phi"] for e in doc["data"]["evaluations"]]
    assert len(phis) == 5
    assert phis[0] == 0.0
    assert phis[-1] == pytest.approx(math.pi / 2, rel=1e-15)


# ---------------------------------------------------------------------------
# scan


SCAN_ARGS = [
    "scan", "--k", "1", "--N", "4", "--phi", str(math.pi / 4),
    "--xi-sq", "0.05:0.95:7", "--eta-sq", "0.1:0.9:5",
]


def test_scan_csv_layout(capsys):
    out, _ = run_cli(capsys, SCAN_ARGS)
    lines = out.splitlines()
    man = manifest_of_csv(out)
    assert man["subcommand"] == "scan"
    assert man["parameters"]["model"] == "trapped-ion"
    assert lines[1] == "xi_sq,eta_sq,squeeze,status"
    assert len(lines) == 2 + 7 * 5
    assert all(line.endswith(",OK") for line in lines[2:])


def test_scan_byte_identical_across_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outputs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        path = tmp_path / name
        run_cli(capsys, SCAN_ARGS + ["--output", str(path)])
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def _asks(cells):
    """argv that ask for `cells` cells of a sample grid, by the flag that sizes it."""
    side = math.isqrt(cells) + 1  # a grid of side x side nodes, each axis within the ceiling
    point = ["--k", "1", "--N", "4", "--xi-sq", "0.2", "--samples", str(cells)]
    return {
        "squeeze --samples": ["squeeze", *point],
        "polar --samples": ["polar", *point],
        "scan --xi-sq": [*SCAN_ARGS[:8], f"0.05:0.95:{cells}", *SCAN_ARGS[9:]],
        "boundary --eta-sq": ["boundary", *SCAN_ARGS[1:10], f"0.1:0.9:{cells}"],
        "intersect --eta-sq": ["intersect", *point[:6], "--eta-sq", f"0.05:0.45:{cells}"],
        "scan grid": [*SCAN_ARGS[:8], f"0.05:0.95:{side}", "--eta-sq", f"0.1:0.9:{side}"],
    }


@pytest.mark.parametrize("flag", list(_asks(1)))
def test_a_sample_grid_past_the_cell_ceiling_is_exit_two(capsys, monkeypatch, flag):
    # nothing capped these: 2**40 asked for that many floats before any work
    # began; the check comes first, so neither run allocates what it asks for
    assert fansq.errors._MAX_CELLS == 1 << 22
    for cells, ceiling in ((2**40, 1 << 22), (101, 100)):
        monkeypatch.setattr(fansq.errors, "_MAX_CELLS", ceiling)
        try:
            code = main(_asks(cells)[flag])
        except SystemExit as exc:  # an axis fails as its flag's argparse type
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2 and err.rstrip().endswith(f"past the ceiling of {ceiling}"), err


def test_scan_json_nodes(capsys):
    doc = run_json(capsys, SCAN_ARGS + ["--format", "json"])
    nodes = doc["data"]["nodes"]
    assert len(nodes) == 35
    assert {n["status"] for n in nodes} == {"OK"}
    assert all(n["squeeze"] is not None for n in nodes)


# ---------------------------------------------------------------------------
# intersect / boundary / polar / directions


def test_scan_csv_is_the_json_floats_written_with_17_digits(capsys):
    # axis values whose shortest repr and 17-digit forms differ, an
    # exponent form, the vacuum column and failed nodes past the radius
    argv = ["scan", "--k", "1", "--N", "4", "--phi", "0.3",
            "--xi-sq", "0:3.3000000000000003:7", "--eta-sq", "1e-5:0.9000000000000001:5"]
    csv_text, _ = run_cli(capsys, argv)
    nodes = run_json(capsys, argv + ["--format", "json"])["data"]["nodes"]
    want = [
        ",".join([f"{n['xi_sq']:.17g}", f"{n['eta_sq']:.17g}",
                  "nan" if n["squeeze"] is None else f"{n['squeeze']:.17g}", n["status"]])
        for n in nodes
    ]
    assert csv_text.splitlines()[2:] == want
    assert {n["status"] for n in nodes} == {"OK", "NotConverged"}
    assert "1.0000000000000001e-05" in want[0] and want[-1].startswith("3.3000000000000003,")


def test_intersect_returns_three_roots(capsys):
    doc = run_json(
        capsys, ["intersect", "--k", "3", "--N", "12", "--xi-sq", "0.1"]
    )
    data = doc["data"]
    assert len(data["roots"]) == 3
    assert data["kinds"] == ["crossing", "tangent", "crossing"]
    assert data["signs"] == [1, -1]
    assert data["skipped"] == []
    assert data["roots"] == sorted(data["roots"])


def test_intersect_at_zero_xi_is_exit_two(capsys):
    code = main(["intersect", "--k", "3", "--N", "12", "--xi-sq", "0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "xi_sq must be a finite float > 0" in err


@pytest.mark.parametrize(
    "sub",
    [
        ["scan", "--phi", "0.3", "--xi-sq", "0.1:0.5:3"],
        ["boundary", "--phi", "0.3", "--xi-sq", "0.1:0.5:3"],
        ["intersect", "--xi-sq", "0.3"],
    ],
    ids=["scan", "boundary", "intersect"],
)
@pytest.mark.parametrize("axis, first", [("0:0.5:11", "0.0"), ("-0.1:0.5:11", "-0.1")])
def test_a_trapped_ion_eta_sq_axis_reaching_zero_is_exit_two(capsys, sub, axis, first):
    # the row engine reads eta_sq = 0.0 as the identity: no such node may reach it
    code = main(sub + ["--k", "1", "--N", "4", f"--eta-sq={axis}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"fansq: invalid parameters: eta_sq must be a finite float > 0, got {first}\n"


def test_an_identity_scan_ignores_its_eta_sq_axis(capsys):
    argv = ["scan", "--model", "identity", "--k", "1", "--N", "4", "--phi", "0.3",
            "--xi-sq", "0.1:0.5:3"]  # fmt: skip
    below, _ = run_cli(capsys, argv + ["--eta-sq=-0.1:0.5:3"])
    above, _ = run_cli(capsys, argv + ["--eta-sq=0.2:0.8:3"])
    values = [[line.split(",")[2:] for line in out.splitlines()[2:]] for out in (below, above)]
    assert values[0] == values[1] and len(values[0]) == 9


def test_squeeze_at_rho_past_one_is_exit_three_naming_rho(capsys):
    # rho = xi^2 eta^2 = 1.05: the series diverges; S was 1.48e161 at exit 0
    argv = ["squeeze", "--k", "3", "--N", "12", "--xi-sq", "5", "--eta-sq", "0.21", "--phi", "0"]
    out, err = run_cli(capsys, argv, expect=3)
    assert out == ""
    assert "diverges at rho = xi^2 eta^2 = 1.05 >= 1" in err


def test_intersect_reports_no_crossing_where_rho_reaches_one(capsys):
    # from eta^2 = 0.2 on, rho = 5 eta^2 >= 1: those nodes are skipped, and
    # no sign change of a divergent gap (|gap| ~ 1e25) is a root
    argv = ["intersect", "--k", "3", "--N", "12", "--xi-sq", "5.0", "--eta-sq", "0.05:0.45:81"]
    data = run_json(capsys, argv)["data"]
    assert data["roots"] == [] and data["kinds"] == []
    skipped = [node["eta_sq"] for node in data["skipped"]]
    assert all(node["status"] == "NotConverged" for node in data["skipped"])
    assert min(skipped) == 0.2 and len(skipped) == 51


def test_boundary_empty_is_exit_three(capsys, tmp_path):
    target = tmp_path / "never.csv"
    code = main(
        ["boundary", "--k", "1", "--N", "2", "--phi", "0.0",
         "--xi-sq", "0.1:0.9:5", "--eta-sq", "0.1:0.9:5",
         "--output", str(target)]
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert "computation failed" in err
    assert not target.exists()
    assert out == ""


def test_polar_csv_with_benchmark_extra(capsys):
    out, _ = run_cli(
        capsys,
        ["polar", "--k", "1", "--N", "4", "--xi-sq", "0.0", "--samples", "24"],
    )
    man = manifest_of_csv(out)
    assert man["extras"]["benchmark"] == 0.75
    lines = out.splitlines()
    assert lines[1] == "phi,squeeze,raw_moment"
    assert len(lines) == 2 + 24


def test_directions_reports_angle_families(capsys):
    doc = run_json(
        capsys,
        ["directions", "--k", "3", "--N", "12", "--xi-sq", "0.1",
         "--eta-sq", "0.2"],
    )
    data = doc["data"]
    assert data["regime"] == "leading-harmonic-positive"
    assert len(data["squeeze_angles"]) == 6
    assert len(data["stretch_angles"]) == 6
    assert data["s_min"] < 0 < data["s_max"]
    assert 0 <= data["harmonic_dominance"] < 0.1
    assert data["squeeze_angles"][0] == pytest.approx(math.pi / 12, rel=1e-12)


# ---------------------------------------------------------------------------
# oracle-check and xi-from-drive


def test_oracle_check_discrepancies_within_gate(capsys):
    doc = run_json(
        capsys,
        ["oracle-check", "--k", "1", "--N", "4", "--xi-sq", "0.2",
         "--max-power", "4"],
    )
    data = doc["data"]
    assert data["max_relative_discrepancy"] <= 1e-8
    assert data["max_absolute_discrepancy_at_zeros"] <= 1e-12
    assert len(data["moments"]) == 15  # all (l, m) with m <= l <= 4
    assert len(data["quadrature"]) == 3
    assert doc["manifest"]["extras"]["oracle_dim"] >= 10


def test_oracle_check_at_xi_zero_is_the_vacuum_even_at_a_pole(capsys):
    # eta^2 = 2 - sqrt(2) is the zero of L_2^0: the vacuum reads no product
    doc = run_json(
        capsys,
        ["oracle-check", "--k", "1", "--N", "4", "--xi-sq", "0",
         "--eta-sq", repr(2 - math.sqrt(2))],
    )
    data = doc["data"]
    assert data["moments"][0]["series"] == data["moments"][0]["oracle"] == 1.0
    assert data["max_absolute_discrepancy_at_zeros"] == 0.0


def test_xi_from_drive_balanced_drive(capsys):
    doc = run_json(
        capsys,
        ["xi-from-drive", "--omega0", "2.0", "--omega1", "2.0",
         "--eta", "0.7071067811865476", "--quantum-order", "2"],
    )
    data = doc["data"]
    assert data["xi"] > 0
    assert data["xi_sq"] == pytest.approx(data["xi"] ** 2, rel=1e-15)


def test_xi_from_drive_rejects_zero_sideband(capsys):
    code = main(
        ["xi-from-drive", "--omega0", "1.0", "--omega1", "0.0",
         "--eta", "0.2", "--quantum-order", "2"]
    )
    _, err = capsys.readouterr()
    assert code == 2
    assert "invalid parameters" in err


@pytest.mark.parametrize("eta", ["1e300", "1e-200"])
def test_xi_from_drive_with_eta_power_outside_float_range_is_exit_two(eta):
    argv = ["xi-from-drive", "--omega0", "1.0", "--omega1", "2.0",
            "--eta", eta, "--quantum-order", "2"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert "drive ratio" in err.getvalue() and "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_odd_order_is_exit_two(capsys):
    code = main(["squeeze", "--k", "1", "--N", "5", "--xi-sq", "0.1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "invalid parameters" in err


def test_missing_required_flag_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["squeeze", "--k", "1", "--xi-sq", "0.1"])
    assert exc.value.code == 2


def test_trapped_ion_requires_eta_sq(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.1",
              "--model", "trapped-ion"])
    assert exc.value.code == 2
    assert "--eta-sq is required" in capsys.readouterr()[1]


def test_identity_rejects_eta_sq(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polar", "--k", "1", "--N", "4", "--xi-sq", "0.1",
              "--model", "identity", "--eta-sq", "0.3"])
    assert exc.value.code == 2
    assert "conflicts" in capsys.readouterr()[1]


def test_bad_axis_range_syntax_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(SCAN_ARGS[:-2] + ["--eta-sq", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-max", "0"],
        ["--rel-tol", "inf"],
        ["--rel-tol", "0.5e1"],
        ["--rel-tol", "1.0"],
        ["--n-max=-5"],
    ],
)
def test_untrustworthy_series_control_is_exit_two(capsys, flags):
    code = main(["squeeze", "--k", "1", "--N", "4", "--xi-sq", "2.0"] + flags)
    _, err = capsys.readouterr()
    assert code == 2
    assert "invalid parameters" in err


def test_the_removed_run_length_flag_is_unknown(capsys):
    # the stop rule has no run length to set, the Laguerre pole floor is a
    # constant, and xi-from-drive sums no series and drops the laser phase
    removed = [(cmd, "--laguerre-floor") for cmd in SUBCOMMANDS]
    removed += [("squeeze", "--consecutive-small")]
    removed += [("xi-from-drive", flag) for flag in ("--phase", "--rel-tol", "--n-max")]
    for cmd, flag in removed:
        with pytest.raises(SystemExit) as exc:
            main([cmd, *SUBCOMMANDS[cmd][0], flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr()[1], (cmd, flag)


@pytest.mark.parametrize(
    "argv",
    [
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--samples", "1"],
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--samples", "0"],
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--samples", "-3"],
        ["oracle-check", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--max-power", "-1"],
        # non-finite angles
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--phi", "inf"],
        ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--phi", "nan"],
        [*SCAN_ARGS[:6], "inf", *SCAN_ARGS[7:]],
        [*SCAN_ARGS[:6], "nan", *SCAN_ARGS[7:]],
        ["boundary", *SCAN_ARGS[1:6], "inf", *SCAN_ARGS[7:]],
        # no node converges, so S is never evaluated
        [*SCAN_ARGS[:6], "nan", *SCAN_ARGS[7:], "--n-max", "2"],
        ["xi-from-drive", "--omega0", "1", "--omega1", "1", "--eta", "nan",
         "--quantum-order", "2"],
    ],
)
def test_sampling_and_power_counts_that_give_no_rows_are_exit_two(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "invalid parameters" in err


def test_zero_max_power_checks_the_norm_only(capsys):
    doc = run_json(
        capsys, ["oracle-check", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--max-power", "0"]
    )
    assert len(doc["data"]["moments"]) == 1


def test_output_file_not_created_on_failure(capsys, tmp_path):
    target = tmp_path / "out.json"
    code = main(["squeeze", "--k", "1", "--N", "5", "--xi-sq", "0.1",
                 "--output", str(target)])
    capsys.readouterr()
    assert code == 2
    assert not target.exists()


def test_output_file_written_and_stdout_silent(capsys, tmp_path):
    target = tmp_path / "out.json"
    run_cli(capsys, ["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.1",
                     "--phi", "0.0", "--output", str(target)])
    out, _ = capsys.readouterr()
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["manifest"]["subcommand"] == "squeeze"


def test_unwritable_output_is_exit_two(capsys, tmp_path):
    code = main(["squeeze", "--k", "1", "--N", "4", "--xi-sq", "0.1",
                 "--phi", "0.0", "--output", str(tmp_path / "no" / "dir.json")])
    _, err = capsys.readouterr()
    assert code == 2
    assert "cannot write" in err


# ---------------------------------------------------------------------------
# manifest and CSV header of every subcommand

# argv and the CSV header documented in the README, per subcommand
SUBCOMMANDS = {
    "squeeze": (["--k", "1", "--N", "4", "--xi-sq", "0.5", "--phi", "0.3"],
                "phi,squeeze,raw_moment"),
    "scan": (SCAN_ARGS[1:], "xi_sq,eta_sq,squeeze,status"),
    "boundary": (["--k", "1", "--N", "4", "--phi", str(math.pi / 4),
                  "--xi-sq", "0.05:0.95:7", "--eta-sq", "0.1:0.9:5"], "xi_sq,eta_sq"),
    "intersect": (["--k", "1", "--N", "4", "--xi-sq", "0.3", "--eta-sq", "0.1:0.9:9"],
                  "eta_sq_root,kind"),
    "polar": (["--k", "1", "--N", "4", "--xi-sq", "0.2", "--eta-sq", "0.3",
               "--samples", "8"], "phi,squeeze,raw_moment"),
    "directions": (["--k", "1", "--N", "4", "--xi-sq", "0.5"], "angle,kind"),
    "oracle-check": (["--k", "1", "--N", "4", "--xi-sq", "0.2", "--max-power", "2"],
                     "kind,l,m,phi,series,oracle,abs_err,rel_err"),
    "xi-from-drive": (["--omega0", "1.0", "--omega1", "2.0", "--eta", "0.3",
                       "--quantum-order", "2"], "xi,xi_sq"),
}


def _subparsers() -> dict:
    action = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def test_every_subcommand_is_covered():
    assert set(_subparsers()) == set(SUBCOMMANDS)


def test_the_series_flags_default_to_the_series_control_defaults():
    # SeriesControl holds the defaults; a copy in the parser would drift from them
    want = {name: repr(value) for name, value in dataclasses.asdict(SeriesControl()).items()}
    seen = []
    for cmd, sub in _subparsers().items():
        defaults = {a.dest: repr(a.default) for a in sub._actions if a.dest in want}
        if defaults:
            assert defaults == want, cmd
            seen.append(cmd)
    assert sorted(seen) == sorted(set(SUBCOMMANDS) - {"xi-from-drive"})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cmd", sorted(SUBCOMMANDS))
def test_manifest_parameters_are_the_subcommands_own_flags(capsys, cmd, fmt):
    sub = _subparsers()[cmd]
    series_flags = {
        a.dest for g in sub._action_groups if g.title == "series control" for a in g._group_actions
    }
    # every subcommand but xi-from-drive sums a series
    assert bool(series_flags) == (cmd != "xi-from-drive")
    own_flags = {a.dest for a in sub._actions} - series_flags - {"help", "format", "output"}

    argv, header = SUBCOMMANDS[cmd]
    out, _ = run_cli(capsys, [cmd, *argv, "--format", fmt])
    if fmt == "json":
        man = json.loads(out)["manifest"]
    else:
        man = manifest_of_csv(out)
        lines = out.splitlines()
        assert lines[1] == header
        assert len(lines) > 2
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines[2:])
    assert man["subcommand"] == cmd
    assert set(man["parameters"]) == own_flags
    assert set(man.get("series_control", ())) == series_flags
    if "model" in own_flags:
        assert man["parameters"]["model"] in ("identity", "trapped-ion")
    for name in ("xi_sq", "eta_sq"):
        if isinstance(man["parameters"].get(name), dict):
            assert set(man["parameters"][name]) == {"min", "max", "count"}


# a valid text per numeric flag; the test swaps in one text of each rejected kind at a time
VALID_TEXT = {
    "--k": "1", "--N": "4", "--xi-sq": "0.2", "--eta-sq": "0.3", "--phi": "0.3",
    "--samples": "8", "--max-power": "2", "--rel-tol": "1e-16", "--n-max": "64",
    "--omega0": "1.0", "--omega1": "2.0", "--eta": "0.3", "--quantum-order": "2",
}
VALID_RANGE = ("0.1", "0.9", "5")
NOT_INT_TEXT = ["True", "2.0", "2.5", "nan", "inf", "-inf", "-1", "0"]
NOT_FLOAT_TEXT = ["True", "nan", "inf", "-inf", "-1", "0"]


def _valid_text(action):
    if action.type is _axis_range:
        return ":".join(VALID_RANGE)
    return VALID_TEXT[action.option_strings[0]]


def _bad_texts(action):
    if action.type is not _axis_range:
        return NOT_INT_TEXT if action.type is int else NOT_FLOAT_TEXT
    texts = []
    for i, not_kind in enumerate((NOT_FLOAT_TEXT, NOT_FLOAT_TEXT, NOT_INT_TEXT)):
        for bad in not_kind:
            parts = list(VALID_RANGE)
            parts[i] = bad
            texts.append(":".join(parts))
    return texts


def test_a_bad_number_on_any_flag_is_exit_two_or_three_and_no_traceback():
    for cmd, sub in _subparsers().items():
        flags = [a for a in sub._actions if a.type in (int, float, _axis_range)]
        valid = {a.option_strings[0]: _valid_text(a) for a in flags}
        for action in flags:
            flag = action.option_strings[0]
            for text in [valid[flag], *_bad_texts(action)]:
                argv = [cmd, *(f"{f}={text if f == flag else t}" for f, t in valid.items())]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects the text of a flag
                        code = exc.code
                assert code in (0, 2, 3), (argv, err.getvalue())
                assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# manifest reproducibility


def test_timestamp_from_source_date_epoch(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    doc = run_json(capsys, ["xi-from-drive", "--omega0", "1.0", "--omega1", "1.0",
                            "--eta", "0.5", "--quantum-order", "2"])
    assert doc["manifest"]["timestamp"] == "2023-11-14T22:13:20+00:00"

    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    doc = run_json(capsys, ["xi-from-drive", "--omega0", "1.0", "--omega1", "1.0",
                            "--eta", "0.5", "--quantum-order", "2"])
    assert doc["manifest"]["timestamp"] is None


# not ASCII digits, or digits no datetime can hold (int() also refuses
# more than 4,300 digits); each crashed every subcommand after its
# computation with a ValueError or OSError and a traceback
MALFORMED_EPOCHS = ["abc", "1e3", "", " 17", "-1", "١٧", "99999999999999999",
                    "253402300800", pytest.param("9" * 5000, id="5000-nines")]


@pytest.mark.parametrize("epoch", MALFORMED_EPOCHS)
def test_a_malformed_source_date_epoch_is_exit_two_before_any_computation(
    capsys, monkeypatch, epoch
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    # an empty boundary would fail with exit 3 if it were computed first
    empty = ["--k", "1", "--N", "2", "--phi", "0.0", "--xi-sq", "0.1:0.9:5",
             "--eta-sq", "0.1:0.9:5"]
    runs = [(cmd, argv) for cmd, (argv, _) in SUBCOMMANDS.items()] + [("boundary", empty)]
    for cmd, argv in runs:
        out, err = run_cli(capsys, [cmd, *argv], expect=2)
        assert out == "" and "invalid parameters: SOURCE_DATE_EPOCH" in err, cmd


def test_the_last_second_datetime_holds_is_a_valid_source_date_epoch(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "253402300799")
    doc = run_json(capsys, ["xi-from-drive", "--omega0", "1.0", "--omega1", "1.0",
                            "--eta", "0.5", "--quantum-order", "2"])
    assert doc["manifest"]["timestamp"] == "9999-12-31T23:59:59+00:00"
