"""CLI surface: ``repro lint`` and ``python -m repro.lint``."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main
from tests.lint.test_rules import BAD_CASES

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parents[2] / "src")


def test_lint_src_exits_zero(capsys):
    assert main([SRC]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "0 findings" in out


def test_bad_fixture_exits_nonzero(capsys):
    code = main([str(FIXTURES / "bad_determinism.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "D101" in out


def test_json_flag_emits_machine_readable_findings(capsys):
    code = main([str(FIXTURES / "bad_structure.py"), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert {f["rule"] for f in payload["findings"]} == {"S501"}
    assert all(f["hint"] for f in payload["findings"])


def test_rule_filter_flag(capsys):
    code = main([str(FIXTURES / "bad_determinism.py"), "--rule", "F"])
    assert code == 0
    code = main([str(FIXTURES / "bad_determinism.py"), "--rule", "D103"])
    assert code == 1
    out = capsys.readouterr().out
    assert "D103" in out and "D101" not in out


def test_repro_cli_dispatches_lint(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", SRC]) == 0


@pytest.mark.parametrize("name,family",
                         [(name, family) for name, family, _ids in BAD_CASES])
def test_rule_family_fires_on_exactly_its_fixture(name, family, capsys):
    # --rule <family> must trip the bad fixture and report only that
    # family's rules; the good twin must be clean under every rule.
    assert main([str(FIXTURES / name), "--rule", family, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in payload["findings"]}
    assert rules and all(rule.startswith(family) for rule in rules)
    assert main([str(FIXTURES / name.replace("bad_", "good_", 1))]) == 0


def test_json_witness_paths(capsys):
    code = main([str(FIXTURES / "bad_probe.py"), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    witnessed = [f for f in payload["findings"] if "witness" in f]
    assert witnessed
    for f in witnessed:
        for h in f["witness"]:
            assert set(h) == {"line", "col", "note"}


def test_baseline_round_trip(tmp_path, capsys):
    base = tmp_path / "baseline.json"
    good = str(FIXTURES / "good_kernelflow.py")
    assert main([good, "--write-baseline", str(base)]) == 0
    capsys.readouterr()
    assert main([good, "--baseline", str(base)]) == 0
    capsys.readouterr()


def test_baseline_detects_new_debt_and_stale_credit(tmp_path, capsys):
    # Baseline of a pragma-free file vs. a run with a daemon pragma:
    # new debt fails.  The reverse direction (stale credit) fails too.
    clean = str(FIXTURES / "good_probe.py")
    tagged = str(FIXTURES / "good_kernelflow.py")
    base = tmp_path / "baseline.json"
    assert main([clean, "--write-baseline", str(base)]) == 0
    capsys.readouterr()
    assert main([tagged, "--baseline", str(base)]) == 1
    err = capsys.readouterr().err
    assert "new suppression debt" in err
    assert main([tagged, "--write-baseline", str(base)]) == 0
    capsys.readouterr()
    assert main([clean, "--baseline", str(base)]) == 1
    err = capsys.readouterr().err
    assert "shrank" in err
