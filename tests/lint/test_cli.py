"""CLI surface: ``repro lint``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from tests.lint.test_rules import BAD_CASES

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parents[2] / "src")


def lint(argv):
    return main(["lint", *argv])


def test_lint_src_exits_zero(capsys):
    assert lint([SRC]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "0 findings" in out


def test_bad_fixture_exits_nonzero(capsys):
    code = lint([str(FIXTURES / "bad_determinism.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "D101" in out


def test_json_flag_emits_machine_readable_findings(capsys):
    code = lint([str(FIXTURES / "bad_structure.py"), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert {f["rule"] for f in payload["findings"]} == {"S501"}
    assert all(f["hint"] for f in payload["findings"])


def test_rule_filter_flag(capsys):
    code = lint([str(FIXTURES / "bad_determinism.py"), "--rule", "F"])
    assert code == 0
    code = lint([str(FIXTURES / "bad_determinism.py"), "--rule", "D103"])
    assert code == 1
    out = capsys.readouterr().out
    assert "D103" in out and "D101" not in out


@pytest.mark.parametrize("argv, named", [
    (["tests/no_such_dir"], "tests/no_such_dir"),
    ([str(Path(__file__).parents[2] / "pyproject.toml")], "pyproject.toml"),
    ([SRC, "--rule", "Z9"], "'Z9'"),
    ([SRC, "--rule", "D", "--rule", "D9"], "'D9'"),
    ([SRC, "--rule", ""], "''"),
])
def test_a_path_or_rule_that_selects_nothing_is_a_usage_error(
        argv, named, capsys):
    # Linting nothing must not read as a clean run.
    assert lint(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_a_family_letter_or_rule_prefix_in_any_case_is_known(capsys):
    assert lint([str(FIXTURES / "bad_determinism.py"), "--rule", "d"]) == 1
    assert lint([str(FIXTURES / "bad_determinism.py"), "--rule", "d10"]) == 1
    assert "D101" in capsys.readouterr().out


def test_repro_cli_dispatches_lint(capsys):
    # ``repro lint`` takes paths, --json and --rule; nothing else.
    with pytest.raises(SystemExit) as done:
        lint(["--help"])
    assert done.value.code == 0
    options = {word.rstrip(",") for word in capsys.readouterr().out.split()
               if word.startswith("--")}
    assert options == {"--help", "--json", "--rule"}


#: A comment that once silenced a finding, each with the rule it must
#: no longer hide: an ``ignore[...]`` on a C301 call, a ``daemon`` tag on
#: a discarded spawn (K404) and a ``host-time`` header on a wall-clock
#: import (D101).
SILENCING_COMMENTS = [
    ("# simlint: module=repro.core.fixture\n"
     "def f(fabric, a, b):\n"
     "    return fabric.message(a, b, tag='control')"
     "  # simlint: ignore[C301] -- legacy call\n", "C301"),
    ("# simlint: module=repro.core.fixture\n"
     "def spawner(env, reaper):\n"
     "    env.process(reaper())  # simlint: daemon -- runs for the whole sim\n"
     "    yield env.timeout(1)\n", "K404"),
    ("# simlint: module=repro.core.fixture\n"
     "# simlint: host-time\n"
     "import time\n", "D101"),
]


@pytest.mark.parametrize("source,rule", SILENCING_COMMENTS,
                         ids=["ignore", "daemon", "host-time"])
def test_no_comment_silences_a_finding(tmp_path, capsys, source, rule):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(source)
    assert lint([str(snippet), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == [rule]


@pytest.mark.parametrize("name,family",
                         [(name, family) for name, family, _ids in BAD_CASES])
def test_rule_family_fires_on_exactly_its_fixture(name, family, capsys):
    # --rule <family> must trip the bad fixture and report only that
    # family's rules; the good twin must be clean under every rule.
    assert lint([str(FIXTURES / name), "--rule", family, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in payload["findings"]}
    assert rules and all(rule.startswith(family) for rule in rules)
    assert lint([str(FIXTURES / name.replace("bad_", "good_", 1))]) == 0


def test_json_witness_paths(capsys):
    code = lint([str(FIXTURES / "bad_probe.py"), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    witnessed = [f for f in payload["findings"] if "witness" in f]
    assert witnessed
    for f in witnessed:
        for h in f["witness"]:
            assert set(h) == {"line", "col", "note"}
