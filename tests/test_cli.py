"""Command line behavior: flags, config files, exit codes, output."""

import json

import pytest

from threepv.cli import _CONFIG_KEYS, build_parser, coerce_options, load_config_file, main
from threepv.scalars import QQ
from threepv.suites import parse_b1


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_passing_suite_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "mu-compare", "--window", "1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "mu-compare"
    assert data["failed"] == 0


def test_failing_suite_exits_one(capsys):
    code, out, _ = run_cli(capsys, "virasoro-rep", "--window", "1",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["failed"] > 0


def test_unknown_suite_is_an_error(capsys):
    code, _, err = run_cli(capsys, "no-such-suite")
    assert code == 2
    assert "unknown suite" in err


def test_bad_flag_value_is_an_error(capsys):
    code, _, err = run_cli(capsys, "ring-witt", "--window", "0")
    assert code == 2
    assert "window" in err


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("threepv.cli.run_suite", broken)
    code, out, err = run_cli(capsys, "mu-compare", "--window", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "boom" in err
    assert err.count("\n") == 1


def test_an_exponent_past_the_limit_is_a_usage_error(capsys):
    # the states spec is user input: degree 20000 packs an exponent past 255
    code, out, err = run_cli(capsys, "heisenberg-rep", "--window", "1",
                             "--states", "random:1:20000", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds 255" in err


def test_b1_with_unequal_diagonal_is_refused_by_every_suite(capsys):
    for suite in ("ring-witt", "mu-compare", "heisenberg-rep"):
        code, out, err = run_cli(capsys, suite, "--B1", "1,2,3,4", "--window", "1")
        assert code == 2, suite
        assert out == "" and "equal diagonal" in err


def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa0=2/0\n")
    for flags, text in ((("--kappa0", "1/0"), "1/0"), (("--B0", "3/0"), "3/0"),
                        (("--B1", "1,2/0,3,1"), "2/0"),
                        (("--config", str(cfg)), "2/0")):
        code, out, err = run_cli(capsys, "ring-witt", "--window", "1", *flags)
        assert code == 2, flags
        assert out == "" and err.startswith("error:") and text in err, flags


def test_text_is_default_format(capsys):
    code, out, _ = run_cli(capsys, "kaehler-basis", "--window", "1")
    assert code == 0
    assert out.startswith("suite: kaehler-basis")


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=2\nformat=json\nseed=5\n# comment line\n\n")
    code, out, _ = run_cli(capsys, "mu-compare", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["params"]["window"] == 2
    assert data["params"]["seed"] == 5


def test_flags_win_over_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=4\nformat=json\n")
    code, out, _ = run_cli(capsys, "mu-compare", "--config", str(cfg),
                           "--window", "1")
    assert code == 0
    assert json.loads(out)["params"]["window"] == 1


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble=3\n")
    code, _, err = run_cli(capsys, "mu-compare", "--config", str(cfg))
    assert code == 2
    assert "unknown option" in err


def test_config_keys_are_the_parser_options_but_config():
    options = vars(build_parser().parse_args(["mu-compare"]))
    assert _CONFIG_KEYS == tuple(k for k in options if k != "config")


def test_config_rejects_missing_file(capsys):
    code, _, err = run_cli(capsys, "mu-compare", "--config", "/no/such/file")
    assert code == 2
    assert err.startswith("error:")


def test_config_rejects_bad_syntax(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run_cli(capsys, "mu-compare", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_load_and_coerce_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=heisenberg-rep\nr=1\nkappa0=3/2\nB0=0\n"
                   "B1=0,0,0,0\nwindow=2\nstates=random:2:1\nseed=7\n")
    opts = coerce_options(load_config_file(str(cfg)))
    assert opts["suite"] == "heisenberg-rep"
    assert opts["r"] == 1 and opts["window"] == 2 and opts["seed"] == 7
    assert opts["kappa0"] == QQ(3, 2)
    assert opts["B0"] == 0
    assert opts["B1"] == ((0, 0), (0, 0))
    assert opts["states"] == "random:2:1"


def test_parse_b1_validation():
    assert parse_b1("1,2,3,1") == ((1, 2), (3, 1))
    assert parse_b1("1/2, 0, 0, 1/2") == ((QQ(1, 2), 0), (0, QQ(1, 2)))
    with pytest.raises(ValueError):
        parse_b1("1,2,3")


def test_rational_flags_reach_params(capsys):
    code, out, _ = run_cli(capsys, "heisenberg-rep", "--kappa0", "5/3",
                           "--B0", "-2", "--B1", "1,0,0,1", "--window", "1",
                           "--format", "json")
    assert code == 0
    params = json.loads(out)["params"]
    assert params["kappa0"] == "5/3"
    assert params["B0"] == "-2"
    assert params["B1"] == [["1", "0"], ["0", "1"]]


def test_cli_json_deterministic(capsys):
    argv = ["witt-rep", "--r", "0", "--kappa0", "2", "--window", "1",
            "--states", "random:3:2", "--seed", "13", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
