import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "twistlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
        **kw,
    )


def test_verify_text_exit_zero():
    res = run_cli("verify", "--n", "3", "--suites", "rmatrix", "--alpha", "1/2")
    assert res.returncode == 0, res.stderr
    assert "PASS rmatrix" in res.stdout
    assert "0 failed" in res.stdout


def test_verify_json_format():
    res = run_cli("verify", "--n", "3", "--suites", "rmatrix,antipode",
                  "--alpha", "1/2", "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["witness"] == "fundamental"


def test_verify_config_file(tmp_path):
    cfg = {"n": 3, "suites": ["rmatrix"], "alpha_values": ["1/2"], "output": "json"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("verify", "--config", str(path))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["config"]["n"] == 3


def test_structural_error_exit_two():
    res = run_cli("verify", "--n", "5", "--suites", "nine-states")
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_unknown_suite_exit_two():
    res = run_cli("verify", "--n", "6", "--suites", "nonsense")
    assert res.returncode == 2


def test_dump_and_reload(tmp_path):
    out = tmp_path / "jordanian.mat"
    res = run_cli("dump", "--twist", "jordanian", "--n", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    text = out.read_text()
    assert text.splitlines()[0] == "dim 4"
    # unipotent: four diagonal ones plus the two H x E entries
    assert len(text.splitlines()) == 1 + 6


def test_failing_check_exit_one(monkeypatch, capsys):
    from twistlab import cli
    from twistlab.hopf import CheckResult
    from twistlab.report import SuiteConfig, SuiteReport

    def fake_run_suite(cfg):
        return SuiteReport(cfg, [CheckResult("cocycle[broken]", False, 3, 8, 0.0)], 0.0)

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code = cli.main(["verify", "--n", "2", "--suites", "twist-axioms"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL cocycle[broken] residual=3" in out
    assert "0 passed / 1 failed" in out


def test_dump_chain_round_trip(tmp_path):
    from twistlab.expr import fundamental_morphism
    from twistlab.report import load_matrix
    from twistlab.twists import chain_twist, materialize

    out = tmp_path / "chain.mat"
    res = run_cli("dump", "--twist", "chain", "--n", "6", "--p", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    f6 = fundamental_morphism(6)
    assert load_matrix(str(out)) == materialize(chain_twist(6, 1), f6, f6)


def test_tables_export_all_states():
    res = run_cli("tables", "--n", "6", "--r", "3")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert [t["state_id"] for t in payload] == [
        "J1J0", "E0tJ1J0", "E1tJ1J0", "E0J1J0", "E0tE0J1J0",
        "E1E0E1tJ1J0", "E1J1J0", "E1E0E0tJ1J0", "E1E1tJ1J0",
    ]
    by_id = {t["state_id"]: t for t in payload}
    entry = by_id["E0J1J0"]["entries"]["E[2,3]"]
    assert entry == [
        {"sign": 1, "kind": "Pplus", "i": 2},
        {"sign": 1, "kind": "S1minus", "r": 3},
    ]
    assert by_id["E1E0E0tJ1J0"]["twist_recipe"] == [
        "J(1,6)", "J(2,5)", "E0~", "E(1,3,6)", "E(2,3,5)",
    ]


def test_tables_rejects_small_n():
    res = run_cli("tables", "--n", "5", "--r", "3")
    assert res.returncode == 2


@pytest.mark.parametrize("argv, message", [
    (["--n", "3", "--suites", "rmatrix", "--alpha", "1/0"], "--alpha '1/0'"),
    (["--n", "3", "--suites", "rmatrix", "--alpha", "abc"], "--alpha 'abc'"),
    (["--n", "6", "--suites", "nine-states", "--r", "x"], "--r 'x'"),
    (["--config", "{tmp}/missing.json"], "cannot read --config"),
    (["--config", "{tmp}/not_json.json"], "cannot read --config"),
    (["--config", "{tmp}/string_suites.json"], "'suites' must be a list"),
    (["--config", "{tmp}/string_alphas.json"], "'alpha_values' must be a list"),
    (["--config", "{tmp}/zero_alpha.json"], "bad config"),
    (["--n", "3", "--suites", "twist-axioms", "--alpha", ","], "no alpha values"),
    (["--config", "{tmp}/no_alphas.json"], "no alpha values"),
], ids=["alpha-zero-den", "alpha-text", "r-text", "config-missing", "config-not-json",
        "config-string-suites", "config-string-alphas", "config-alpha-zero-den",
        "alpha-empty", "config-alphas-empty"])
def test_bad_verify_input_is_a_config_error(tmp_path, capsys, argv, message):
    from twistlab import cli

    (tmp_path / "not_json.json").write_text("{n: 3")
    (tmp_path / "string_suites.json").write_text(json.dumps({"n": 3, "suites": "core"}))
    (tmp_path / "string_alphas.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "alpha_values": "12"})
    )
    (tmp_path / "zero_alpha.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "alpha_values": ["1/0"]})
    )
    (tmp_path / "no_alphas.json").write_text(
        json.dumps({"n": 3, "suites": ["twist-axioms"], "alpha_values": []})
    )
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err


def test_check_that_raises_aborts_with_exit_two(monkeypatch, capsys):
    from twistlab import cli, report
    from twistlab.errors import NotNilpotent

    def raising_check(n, witness=None):
        raise NotNilpotent("m^4 != 0 for dim 4")

    monkeypatch.setattr(report, "verify_matreshka", raising_check)
    assert cli.main(["verify", "--n", "4", "--suites", "rmatrix,matreshka"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: m^4 != 0" in captured.err
