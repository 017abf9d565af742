import hashlib
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


def _verify_json(capsys, argv):
    from twistlab import cli

    assert cli.main(["verify", *argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for check in payload["checks"]:
        del check["elapsed"]
    return payload["config"], payload["checks"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_repeated_alpha_runs_once(tmp_path, capsys, source):
    # 2/6 is the carrier split 1/3 again, so it adds no rows
    argv = ["--n", "3", "--suites", "twist-axioms"]
    once = _verify_json(capsys, argv + ["--alpha", "1/3"])
    if source == "flag":
        twice = _verify_json(capsys, argv + ["--alpha", "1/3,2/6"])
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"n": 3, "suites": ["twist-axioms"], "alpha_values": ["1/3", "2/6"]}
        ))
        twice = _verify_json(capsys, ["--config", str(path)])
    assert len(once[1]) == 4
    assert twice == once
    assert twice[0]["alpha_values"] == ["1/3"]


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


def test_dump_names_a_zero_denominator(tmp_path, capsys):
    from twistlab import cli

    out = tmp_path / "extended.mat"
    argv = ["dump", "--twist", "extended", "--n", "3", "--alpha", "1/0", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "config error: --alpha '1/0': zero denominator\n"
    assert not out.exists()


def test_dump_names_the_form_alpha_needs(tmp_path, capsys):
    from twistlab import cli

    out = tmp_path / "extended.mat"
    argv = ["dump", "--twist", "extended", "--n", "3", "--alpha", "1.5", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        "config error: --alpha '1.5': needs an integer or a 'p/q' string\n"
    assert not out.exists()


@pytest.mark.parametrize("witness", ["fundamental", "doubled"])
def test_verify_at_n2_dumps_the_jordanian_alone(tmp_path, capsys, witness):
    # the extended twists' carrier column needs 1 < r < N, so below N = 3
    # they are left out of the dumps, as 2chain is below N = 4
    from twistlab import cli
    from twistlab.report import WITNESSES, dump_witness, load_matrix
    from twistlab.twists import jordanian_factor, materialize, sequence

    argv = ["verify", "--n", "2", "--suites", "core", "--witness", witness,
            "--dump-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("PASS core[") == 4 and out.endswith("4 passed / 0 failed\n")
    assert [p.name for p in tmp_path.iterdir()] == ["jordanian_N2.mat"]
    w = dump_witness(WITNESSES[witness](2))
    want = materialize(sequence(jordanian_factor(2, 1)), w, w)
    assert load_matrix(str(tmp_path / "jordanian_N2.mat")) == want


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


# sha256 of `twistlab tables --n N --r r` stdout, all nine states
TABLES_HASHES = {
    (6, 3): "a024c4922a8b0223e4acc62156725fdf486dd2fb019bb7b57b0fd0888cf0c9f0",
    (7, 4): "4d08c6a4ff5194afbccfe08f5f85a5f6f878aa1ede86179efaa3e245d737b84b",
    (8, 5): "94cc854b7eb13c7fb69ded35f644847ea4e8cf520a2cef6f9081e1798fbbf508",
}


@pytest.mark.parametrize("n, r", sorted(TABLES_HASHES))
def test_tables_output_keeps_its_bytes(capsys, n, r):
    from twistlab import cli

    assert cli.main(["tables", "--n", str(n), "--r", str(r)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_HASHES[n, r]


def test_tables_rejects_small_n():
    res = run_cli("tables", "--n", "5", "--r", "3")
    assert res.returncode == 2


# a whole config file that flags write over
FILE_CONFIG = {"n": 3, "suites": ["rmatrix"], "r_values": [], "alpha_values": ["1/2"],
               "witness": "fundamental"}


@pytest.mark.parametrize("argv, message", [
    (["--n", "3", "--suites", "rmatrix", "--alpha", "1/0"], "--alpha '1/0'"),
    (["--n", "3", "--suites", "rmatrix", "--alpha", "1/3,1/0"], "--alpha '1/0': zero denominator"),
    (["--n", "3", "--suites", "rmatrix", "--alpha", "abc"],
     "--alpha 'abc': needs an integer or a 'p/q' string"),
    (["--n", "3", "--suites", "rmatrix", "--alpha", "1.5"],
     "--alpha '1.5': needs an integer or a 'p/q' string"),
    (["--n", "6", "--suites", "nine-states", "--r", "x"], "--r 'x': needs an integer"),
    (["--config", "{tmp}/missing.json"], "cannot read --config"),
    (["--config", "{tmp}/not_json.json"], "cannot read --config"),
    (["--config", "{tmp}/string_suites.json"], "'suites' must be a list"),
    (["--config", "{tmp}/nested_suites.json"],
     "'suites' entries must be strings, got [['core']]"),
    (["--config", "{tmp}/object_suites.json"],
     "'suites' entries must be strings, got [{'a': 1}]"),
    (["--config", "{tmp}/string_alphas.json"], "'alpha_values' must be a list"),
    (["--config", "{tmp}/zero_alpha.json"], "bad config"),
    (["--config", "{tmp}/zero_alpha.json"],
     "bad config: 'alpha_values' has a zero denominator, got '1/0'"),
    (["--n", "3", "--suites", "twist-axioms", "--alpha", ","], "no alpha values"),
    (["--config", "{tmp}/no_alphas.json"], "no alpha values"),
    (["--config", "{tmp}/int_dump_dir.json"], "'dump_dir' must be a string, got 5"),
    (["--config", "{tmp}/list_witness.json"], "'witness' must be a string"),
    (["--config", "{tmp}/float_n.json"], "'n' needs an integer, got 6.7"),
    (["--config", "{tmp}/float_r.json"], "'r_values' needs an integer, got 3.9"),
    (["--config", "{tmp}/no_n.json"], "bad config: missing key 'n'"),
    (["--config", "{tmp}/list.json"], "a config is a JSON object, got [6]"),
    (["--config", "{tmp}/float_alpha.json"],
     "'alpha_values' needs an integer or a 'p/q' string, got 0.5"),
    (["--config", "{tmp}/bool_alpha.json"],
     "'alpha_values' needs an integer or a 'p/q' string, got True"),
    # a value int() or parse_rat cannot read is named as a float is
    (["--config", "{tmp}/null_n.json"], "'n' needs an integer, got None"),
    (["--config", "{tmp}/text_n.json"], "'n' needs an integer, got '6.7'"),
    (["--config", "{tmp}/list_r.json"], "'r_values' needs an integer, got [3]"),
    (["--config", "{tmp}/null_alpha.json"],
     "'alpha_values' needs an integer or a 'p/q' string, got None"),
    (["--config", "{tmp}/text_alpha.json"],
     "'alpha_values' needs an integer or a 'p/q' string, got 'abc'"),
    (["--config", "{tmp}/misspelled_key.json"], "unknown config keys ['witnes']"),
    (["--config", "{tmp}/flag_name_key.json"], "unknown config keys ['alpha']"),
    # an empty list flag empties the file's list, as it does with no file
    (["--config", "{tmp}/full.json", "--suites", ""], "no suites requested"),
    (["--config", "{tmp}/full.json", "--alpha", ","], "no alpha values"),
    (["--config", "{tmp}/seven.json", "--r", ""], "no r values"),
    # an empty r list is refused as an empty alpha list is, in each spelling
    (["--n", "6", "--suites", "nine-states", "--r", ""], "no r values"),
    (["--n", "6", "--suites", "nine-states", "--r", ","], "no r values"),
    (["--config", "{tmp}/no_r.json"], "no r values"),
    # an empty path is a path that cannot be used, not a missing flag
    (["--config", "", "--n", "3", "--suites", "rmatrix", "--alpha", "1/2"],
     "cannot read --config ''"),
    (["--n", "3", "--suites", "rmatrix", "--alpha", "1/2", "--dump-dir", ""],
     "dump_dir '' names no directory"),
], ids=["alpha-zero-den", "alpha-zero-den-named", "alpha-text", "alpha-decimal", "r-text",
        "config-missing", "config-not-json",
        "config-string-suites", "config-nested-suites", "config-object-suites",
        "config-string-alphas", "config-alpha-zero-den", "config-alpha-zero-den-named",
        "alpha-empty", "config-alphas-empty", "config-int-dump-dir", "config-list-witness",
        "config-float-n", "config-float-r", "config-missing-n", "config-list",
        "config-float-alpha", "config-bool-alpha", "config-null-n", "config-text-n",
        "config-list-r", "config-null-alpha", "config-text-alpha", "config-misspelled-key",
        "config-flag-name-key", "config-empty-suites-flag", "config-empty-alpha-flag",
        "config-empty-r-flag", "r-empty", "r-comma", "config-r-empty",
        "config-empty-path", "dump-dir-empty-path"])
def test_bad_verify_input_is_a_config_error(tmp_path, capsys, argv, message):
    from twistlab import cli

    (tmp_path / "not_json.json").write_text("{n: 3")
    (tmp_path / "string_suites.json").write_text(json.dumps({"n": 3, "suites": "core"}))
    (tmp_path / "nested_suites.json").write_text(json.dumps({"n": 6, "suites": [["core"]]}))
    (tmp_path / "object_suites.json").write_text(json.dumps({"n": 6, "suites": [{"a": 1}]}))
    (tmp_path / "string_alphas.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "alpha_values": "12"})
    )
    (tmp_path / "zero_alpha.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "alpha_values": ["1/0"]})
    )
    (tmp_path / "no_alphas.json").write_text(
        json.dumps({"n": 3, "suites": ["twist-axioms"], "alpha_values": []})
    )
    (tmp_path / "int_dump_dir.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "dump_dir": 5})
    )
    (tmp_path / "list_witness.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "witness": ["doubled"]})
    )
    (tmp_path / "float_n.json").write_text(json.dumps({"n": 6.7, "suites": ["rmatrix"]}))
    (tmp_path / "float_r.json").write_text(
        json.dumps({"n": 6, "suites": ["nine-states"], "r_values": [3.9]})
    )
    (tmp_path / "no_n.json").write_text(json.dumps({"suites": ["rmatrix"]}))
    (tmp_path / "list.json").write_text(json.dumps([6]))
    for name, n in (("null_n", None), ("text_n", "6.7")):
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": n, "suites": ["rmatrix"]}))
    (tmp_path / "list_r.json").write_text(
        json.dumps({"n": 6, "suites": ["nine-states"], "r_values": [[3]]})
    )
    for name, alpha in (("float_alpha", 0.5), ("bool_alpha", True), ("null_alpha", None),
                        ("text_alpha", "abc")):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"n": 3, "suites": ["rmatrix"], "alpha_values": [alpha]})
        )
    # a key not among SuiteConfig's fields was once ignored, and the run
    # went ahead in the default witness with the default alphas
    (tmp_path / "misspelled_key.json").write_text(json.dumps(
        {"n": 3, "suites": ["rmatrix"], "witnes": "doubled", "alpha_values": ["1/3"]}
    ))
    (tmp_path / "flag_name_key.json").write_text(
        json.dumps({"n": 3, "suites": ["rmatrix"], "alpha": ["1/3"]})
    )
    (tmp_path / "full.json").write_text(json.dumps(FILE_CONFIG))
    (tmp_path / "seven.json").write_text(
        json.dumps({**FILE_CONFIG, "n": 7, "suites": ["nine-states"], "r_values": [3]})
    )
    (tmp_path / "no_r.json").write_text(
        json.dumps({"n": 6, "suites": ["nine-states"], "r_values": []})
    )
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    # the message follows the one prefix directly: no "bad config: " wrapped around it
    assert err.startswith(f"config error: {message}")


def test_a_reports_config_runs_as_a_config_file(tmp_path, capsys):
    argv = ["--n", "6", "--suites", "twist-axioms,nine-states", "--r", "3", "--alpha", "1/3"]
    config, checks = _verify_json(capsys, argv)
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(config))
    assert _verify_json(capsys, ["--config", str(path)]) == (config, checks)


@pytest.mark.parametrize("file_keys, argv, expected", [
    ({}, ["--n", "6", "--suites", "nine-states", "--r", "3"],
     {"n": 6, "suites": ["nine-states"], "r_values": [3]}),
    ({}, ["--witness", "doubled"], {"witness": "doubled"}),
], ids=["n-suites-r", "witness"])
def test_flags_override_the_config_file(tmp_path, capsys, file_keys, argv, expected):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FILE_CONFIG, **file_keys}))
    config, checks = _verify_json(capsys, ["--config", str(path), *argv])
    assert config == {**FILE_CONFIG, **file_keys, **expected, "output": "json",
                      "dump_dir": None}
    assert checks and all(check["passed"] for check in checks)


def test_an_omitted_r_runs_every_column(capsys):
    config, checks = _verify_json(capsys, ["--n", "7", "--suites", "nine-states"])
    assert config["r_values"] == [3, 4, 5]
    assert len(checks) == 1 + 9 * 3 and all(check["passed"] for check in checks)


def test_check_that_raises_aborts_with_exit_two(monkeypatch, capsys):
    from twistlab import cli, report
    from twistlab.errors import NotNilpotent

    def raising_check(witness):
        raise NotNilpotent("m^4 != 0 for dim 4")

    monkeypatch.setattr(report, "verify_matreshka", raising_check)
    assert cli.main(["verify", "--n", "4", "--suites", "rmatrix,matreshka"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: m^4 != 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["dump", "--twist", "jordanian", "--n", "3", "--out", "{tmp}/missing/x.mat"],
    ["tables", "--n", "6", "--r", "3", "--out", "{tmp}/missing/t.json"],
    ["verify", "--n", "3", "--suites", "rmatrix", "--alpha", "1/2",
     "--dump-dir", "{tmp}/file.txt/dumps"],
], ids=["dump", "tables", "verify"])
def test_unwritable_output_exits_two(tmp_path, capsys, argv):
    from twistlab import cli

    (tmp_path / "file.txt").write_text("a file, not a directory\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(tmp_path) in captured.err


@pytest.mark.parametrize("n, imported", [(8, False), (10, False), (11, True)])
def test_fundamental_runs_never_import_numpy(tmp_path, n, imported):
    # numpy serves only the spaces of at least expr.PACKED_FLOOR dims: in the
    # fundamental witness the three-leg ones from N = 11 (1,331 dims), so every
    # suite up to N = 10, with dumps, must not pay its import
    if imported:
        pytest.importorskip("numpy")
    code = (
        "import sys\n"
        "from twistlab.cli import main\n"
        "from twistlab.report import SUITES\n"
        f"rc = main(['verify', '--n', '{n}', '--suites', ','.join(SUITES), '--alpha', '0,1/3',"
        f" '--dump-dir', {str(tmp_path)!r}])\n"
        "print(rc, 'numpy' in sys.modules, 'twistlab.packed' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=240)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == f"0 {imported} {imported}"
