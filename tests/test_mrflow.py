"""MR-contract analyzer, the rules that look across functions and
modules (MR1xx): each fires on its fixture exactly once, the real
source tree is clean, and the counter registry round-trips.
(Same entry point as ``test_mrlint.py``; the file name is the id of
the tests in it.)

Fixtures live in ``tests/fixtures/mrflow/``; each seeds exactly one
violation of its rule next to sanctioned code, pinning both the
detection and the non-detection side.
"""

import textwrap
from pathlib import Path

from repro.analysis import counter_names
from repro.analysis.common import Finding
from repro.analysis.mrlint import (
    RULES,
    build_counter_registry,
    lint_paths,
    render_counter_registry,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "mrflow"
SRC = Path(__file__).parent.parent / "src"
FLOW_RULES = {rule for rule in RULES if rule.startswith("MR1")}


def rules_fired(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


def analyze_source(source: str, tmp_path: Path, name: str = "jobs.py") -> list[Finding]:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)])


class TestRuleFixtures:
    def test_mr101_nondet_through_helper(self):
        findings = lint_paths([str(FIXTURES / "mr101_nondet_helper.py")])
        assert rules_fired(findings) == ["MR101"]
        assert findings[0].function == "token_mapper"
        assert "_jittered_weight" in findings[0].message
        assert "random.random" in findings[0].message

    def test_every_flow_rule_has_a_fixture(self):
        covered = set()
        for path in sorted(FIXTURES.glob("*.py")):
            covered.update(rules_fired(lint_paths([str(path)])))
        assert covered == FLOW_RULES

    def test_fixture_directory_as_one_program(self):
        # analyzed together, the fixtures still fire one finding each —
        # cross-module resolution must not invent extra taint or shapes
        findings = lint_paths([str(FIXTURES)])
        assert sorted(rules_fired(findings)) == sorted(FLOW_RULES)


class TestInterproceduralTaint:
    def test_two_hop_chain(self, tmp_path):
        findings = analyze_source(
            """
            import time

            def _stamp():
                return time.time()

            def _decorate(rid):
                return (rid, _stamp())

            def audit_mapper(record, ctx):
                rid, tokens = record
                ctx.emit((rid, 1), _decorate(rid))
            """,
            tmp_path,
        )
        assert rules_fired(findings) == ["MR101"]
        assert "_decorate -> _stamp" in findings[0].message

    def test_verdict_does_not_depend_on_the_hop_count(self, tmp_path):
        # sorted() over a set comprehension and monotonic timers are clean
        # in the sink itself and one call away; the wall clock is flagged
        # at both distances — only the id differs
        findings = analyze_source(
            """
            import time

            def helper(line):
                seen = set(line.split())
                return sorted(t for t in seen)

            def mapper(line, ctx):
                seen = set(line.split())
                for token in sorted(t for t in seen):
                    ctx.emit((token, 1), line)

            def other_mapper(line, ctx):
                for token in helper(line):
                    ctx.emit((token, 1), line)

            def _stamp():
                return time.perf_counter()

            def timed_mapper(line, ctx):
                t0 = time.perf_counter()
                ctx.emit((line, 1), time.perf_counter() - t0)

            def hop_mapper(line, ctx):
                ctx.emit((line, 1), _stamp())

            def _wall():
                return time.time()

            def dated_mapper(line, ctx):
                ctx.emit((line, 1), time.time())

            def hop_dated_mapper(line, ctx):
                ctx.emit((line, 1), _wall())
            """,
            tmp_path,
        )
        assert [(f.rule, f.function) for f in findings] == [
            ("MR003", "dated_mapper"),
            ("MR101", "hop_dated_mapper"),
        ]

    def test_seeded_rng_helper_is_clean(self, tmp_path):
        findings = analyze_source(
            """
            import random

            def _sampler(seed):
                return random.Random(seed)

            def sample_mapper(record, ctx):
                rng = _sampler(42)
                ctx.emit((record, 1), rng.random())
            """,
            tmp_path,
        )
        assert findings == []

    def test_sorted_set_helper_is_clean(self, tmp_path):
        findings = analyze_source(
            """
            def _unique_tokens(tokens):
                return sorted({t for t in tokens})

            def token_mapper(record, ctx):
                rid, tokens = record
                for token in _unique_tokens(tokens):
                    ctx.emit((token, len(tokens)), (rid, 1))
            """,
            tmp_path,
        )
        assert findings == []

    def test_import_alias_seeds_taint(self, tmp_path):
        findings = analyze_source(
            """
            from random import random as rnd

            def _noise():
                return rnd()

            def token_mapper(record, ctx):
                ctx.emit((record, 1), _noise())
            """,
            tmp_path,
        )
        assert rules_fired(findings) == ["MR101"]


class TestCounterRegistry:
    def test_committed_registry_matches_source_tree(self):
        registry = build_counter_registry([str(SRC)])
        assert registry == counter_names.KNOWN_COUNTER_NAMES
        expected = render_counter_registry(registry)
        committed = Path(counter_names.__file__).read_text()
        assert committed == expected

    def test_name_resolved_through_constant(self, tmp_path):
        path = tmp_path / "jobs.py"
        path.write_text(
            textwrap.dedent(
                """
                _PAIRS = "stage2.pairs_outptu"

                def pairs_reducer(key, values, ctx):
                    ctx.counters.increment(_PAIRS, 1)
                """
            )
        )
        assert build_counter_registry([str(path)]) == {"stage2.pairs_outptu"}


class TestRepoIsFlowClean:
    def test_src_tree_is_flow_clean(self):
        assert lint_paths([str(SRC)]) == []


class TestCli:
    def test_flow_clean_exits_zero(self, capsys):
        assert main(["lint", str(SRC / "repro" / "join")]) == 0
        assert "clean" in capsys.readouterr().err

    def test_flow_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "mr101_nondet_helper.py")]) == 1
        captured = capsys.readouterr()
        assert "MR101" in captured.out
        assert "1 finding(s)" in captured.err

    def test_flow_check_registry(self, capsys):
        assert main(["lint", str(SRC), "--check-registry"]) == 0
        assert "in sync" in capsys.readouterr().err
