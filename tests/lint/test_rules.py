"""Every rule family has a failing and a passing fixture.

The bad fixture for a family must trip *exactly* that family (no
collateral findings from other families), and the matching good fixture
must be completely clean — the pair pins both the sensitivity and the
specificity of each rule.
"""

from pathlib import Path

import pytest

from repro.lint import LintUsageError, lint_paths
from repro.lint.pragmas import parse_pragmas
from repro.lint.rules import ALL_RULES, RULE_IDS

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name):
    result = lint_paths([str(FIXTURES / name)])
    assert result.files_checked == 1
    return result


BAD_CASES = [
    ("bad_determinism.py", "D", {"D101", "D102", "D103", "D104"}),
    # The profiler's scope waives D101/D102 only; D103/D104 must survive.
    ("bad_hosttime.py", "D", {"D103", "D104"}),
    ("bad_floattaint.py", "F", {"F601", "F602", "F603"}),
    ("bad_causetags.py", "C", {"C301", "C302", "C303"}),
    ("bad_kernel.py", "K", {"K401", "K402"}),
    ("bad_kernelflow.py", "K", {"K403", "K404"}),
    ("bad_probe.py", "P", {"P701", "P702", "P703"}),
    ("bad_structure.py", "S", {"S501"}),
    ("bad_obsdag.py", "S", {"S502"}),
    ("bad_seriesdag.py", "S", {"S502"}),
    ("bad_obsimport.py", "S", {"S503"}),
]

GOOD_CASES = [
    "good_determinism.py",
    "good_hosttime.py",
    "good_floattaint.py",
    "good_causetags.py",
    "good_kernel.py",
    "good_kernelflow.py",
    "good_probe.py",
    "good_structure.py",
    "good_obsdag.py",
    "good_seriesdag.py",
    "good_obsimport.py",
]


@pytest.mark.parametrize("name,family,expected_ids", BAD_CASES)
def test_bad_fixture_trips_exactly_its_family(name, family, expected_ids):
    result = lint_fixture(name)
    rules = {f.rule for f in result.findings}
    assert rules == expected_ids
    assert all(rule.startswith(family) for rule in rules)
    assert result.exit_code == 1


@pytest.mark.parametrize("name", GOOD_CASES)
def test_good_fixture_is_clean(name):
    result = lint_fixture(name)
    assert result.findings == []
    assert result.exit_code == 0


def test_rule_ids_are_what_the_bad_fixtures_report():
    # The catalogue a --rule filter is checked against lists each rule
    # of each family, no more and no fewer.
    assert list(RULE_IDS) == list(ALL_RULES)
    assert all(rule.startswith(family)
               for family, ids in RULE_IDS.items() for rule in ids)
    reported = set().union(*(ids for _name, _f, ids in BAD_CASES))
    assert reported == {rule for ids in RULE_IDS.values() for rule in ids}


def test_every_fixture_is_in_the_tables():
    # A fixture missing from the tables would be checked by nothing.
    on_disk = {p.name for pattern in ("bad_*.py", "good_*.py")
               for p in FIXTURES.glob(pattern)}
    assert on_disk == {name for name, _f, _ids in BAD_CASES} | set(GOOD_CASES)


@pytest.mark.parametrize("name,family,expected_ids", BAD_CASES)
def test_rule_filter_restricts_to_family(name, family, expected_ids):
    result = lint_paths([str(FIXTURES / name)], rules=[family])
    assert {f.rule for f in result.findings} == expected_ids
    # A filter that matches no rule id or family is refused rather than
    # reported clean.
    with pytest.raises(LintUsageError, match="Z9"):
        lint_paths([str(FIXTURES / name)], rules=["Z9"])


def test_findings_carry_location_and_hint():
    result = lint_fixture("bad_causetags.py")
    f = result.findings[0]
    assert f.path.endswith("bad_causetags.py")
    assert f.line > 1 and f.col >= 1
    assert "cause" in f.message
    assert f.hint


def test_every_bad_finding_names_its_fixture_line():
    result = lint_fixture("bad_determinism.py")
    source = (FIXTURES / "bad_determinism.py").read_text().splitlines()
    for f in result.findings:
        assert 1 <= f.line <= len(source)


def test_dataflow_findings_carry_witness_paths():
    # Witnesses walk origin -> assignments -> sink, each hop located
    # inside the fixture, ending at the finding's own line.
    for name, rule in [("bad_probe.py", "P701"),
                       ("bad_kernelflow.py", "K403")]:
        result = lint_fixture(name)
        found = [f for f in result.findings if f.rule == rule]
        assert found, (name, rule)
        witness = found[0].witness
        assert len(witness) >= 2
        source = (FIXTURES / name).read_text().splitlines()
        for h in witness:
            assert 1 <= h.line <= len(source)
            assert h.note
        assert witness[-1].line == found[0].line


def test_float_taint_clears_boundary_conversions():
    # Floats may enter an exact module as reads (Fraction(float(<read>))
    # converts exactly) and leave through float() or ratio(): the good
    # fixture does both and must never fire.
    result = lint_fixture("good_floattaint.py")
    assert result.findings == []


#: Float paths into Fraction arithmetic, each with the F rules that must
#: fire on it: through a local, a helper, a comparison, an accumulator,
#: a computed argument and a division of a Fraction.
EXACT_SNIPPETS = [
    ("def f(x):\n    return Fraction(x / 2.5)\n", {"F601", "F602"}),
    ("def f(x):\n    total = Fraction(0)\n    y = x / 3\n"
     "    total += y\n    return total\n", {"F602"}),
    ("def f():\n    total = Fraction(0)\n    total = total + 0.1\n"
     "    return total\n", {"F602"}),
    ("import math\n", {"F603"}),
    ("def h(a, b):\n    return a / b\n\n\ndef f(a, b):\n"
     "    return Fraction(h(a, b))\n", {"F601", "F602"}),
    ("def f(raw):\n    ratio = raw / 2.5\n    share = ratio * 3\n"
     "    return Fraction(share)\n", {"F602"}),
    ("def f(a, w):\n    w = Fraction(w)\n    return Fraction(a) < w * 0.5\n",
     {"F602"}),
    ("def f(d):\n    return Fraction(d[\"a\"] + d[\"b\"])\n", {"F601"}),
    ("def f(x):\n    total = Fraction(x)\n    return total / 2\n", {"F602"}),
]


@pytest.mark.parametrize("body,expected", EXACT_SNIPPETS, ids=[
    f"snippet{i}" for i in range(1, len(EXACT_SNIPPETS) + 1)])
def test_exact_scope_flags_every_float_path(tmp_path, body, expected):
    snippet = tmp_path / "snippet.py"
    snippet.write_text("# simlint: exact\nfrom fractions import Fraction\n\n\n"
                       + body)
    result = lint_paths([str(snippet)])
    assert {f.rule for f in result.findings} == expected


def test_exact_scope_is_the_five_pragma_modules():
    # The pragma is the only scope declaration: these five modules, and
    # no other file under src, carry it.
    src = Path(__file__).parents[2] / "src"
    exact = sorted(
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if parse_pragmas(path.read_text()).exact
    )
    assert exact == [
        "repro/obs/analyze/attribution.py",
        "repro/obs/causal/critical.py",
        "repro/obs/causal/whatif.py",
        "repro/obs/diff/delta.py",
        "repro/obs/series/conserve.py",
    ]


def test_flag_alias_opens_a_probe_block():
    # ``on = p.enabled`` ... ``if on:`` guards exactly like ``if p.enabled:``
    # (Environment.step reads the probe flag once per step this way).
    result = lint_fixture("bad_probe.py")
    source = (FIXTURES / "bad_probe.py").read_text().splitlines()
    stores = [source[f.line - 1] for f in result.findings if f.rule == "P701"]
    assert any("flag-alias guard" in line for line in stores)
