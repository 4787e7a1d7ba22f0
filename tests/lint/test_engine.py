"""Engine behaviour: clean tree at HEAD, deterministic JSON, pragmas."""

import json
from pathlib import Path

from repro.lint import lint_paths, render_json, render_text
from repro.lint.engine import module_name_for
from repro.lint.pragmas import parse_pragmas

REPO = Path(__file__).parents[2]
SRC = REPO / "src"


def test_src_tree_is_clean_at_head():
    result = lint_paths([str(SRC)])
    assert result.findings == [], "\n" + render_text(result)
    assert result.exit_code == 0
    assert result.files_checked > 50


def test_json_output_is_deterministic():
    a = render_json(lint_paths([str(SRC)]))
    b = render_json(lint_paths([str(SRC)]))
    assert a == b
    payload = json.loads(a)
    assert payload["version"] == 1
    assert payload["exit_code"] == 0
    assert payload["findings"] == []


def test_pragma_mentions_in_docstrings_are_not_pragmas():
    pragmas = parse_pragmas(
        '"""Docs show `# simlint: exact` as an example."""\n'
        "x = 1\n"
    )
    assert not pragmas.exact


def test_syntax_error_becomes_a_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([str(bad)])
    assert [f.rule for f in result.findings] == ["E000"]
    assert result.exit_code == 1


def test_module_name_inference_follows_packages():
    assert module_name_for(
        SRC / "repro" / "netsim" / "flows.py") == "repro.netsim.flows"
    assert module_name_for(
        SRC / "repro" / "simkernel" / "__init__.py") == "repro.simkernel"


def test_pycache_and_hidden_dirs_are_skipped(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("import time\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "junk.py").write_text("import time\n")
    result = lint_paths([str(tmp_path)])
    assert result.files_checked == 0


def test_witness_json_is_byte_identical_across_runs():
    fixtures = Path(__file__).parent / "fixtures"
    target = str(fixtures / "bad_probe.py")
    a = render_json(lint_paths([target]))
    b = render_json(lint_paths([target]))
    assert a == b
    payload = json.loads(a)
    p701 = [f for f in payload["findings"] if f["rule"] == "P701"]
    assert p701 and p701[0]["witness"][0]["note"].startswith("probe handle")


def test_differential_and_golden_harnesses_are_clean():
    # Satellite of the byte-exactness story: the suites that compare
    # runs bit-for-bit are themselves in determinism scope.
    result = lint_paths([str(REPO / "tests" / "differential"),
                         str(REPO / "tests" / "golden")])
    assert result.findings == [], "\n" + render_text(result)
