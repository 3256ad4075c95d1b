"""MR-contract linter: every rule fires on its fixture exactly once,
clean code passes, and the real source tree is violation-free.

Fixtures live in ``tests/fixtures/mrlint/``; each one seeds exactly one
violation of its rule (and zero violations of every other rule) next to
the sanctioned variant of the same pattern, so these tests pin both the
detection and the non-detection side of each rule.
"""

import textwrap
from pathlib import Path

from repro.analysis import RULES, Finding, lint_file, lint_paths, lint_source
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "mrlint"
SRC = Path(__file__).parent.parent / "src"


def rules_fired(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


class TestRuleFixtures:
    def test_mr001_stateful_mapper(self):
        findings = lint_file(FIXTURES / "mr001_stateful_mapper.py")
        assert rules_fired(findings) == ["MR001"]
        assert findings[0].function == "mapper"
        assert "SEEN" in findings[0].message

    def test_mr002_set_iteration(self):
        findings = lint_file(FIXTURES / "mr002_set_iteration.py")
        assert rules_fired(findings) == ["MR002"]
        # only the raw-set loop fires, not the sorted() one
        assert findings[0].line == 10

    def test_mr003_unseeded_random(self):
        findings = lint_file(FIXTURES / "mr003_unseeded_random.py")
        assert rules_fired(findings) == ["MR003"]
        assert "random.random" in findings[0].message

    def test_mr004_unpicklable_closure(self):
        findings = lint_file(FIXTURES / "mr004_unpicklable_closure.py")
        assert rules_fired(findings) == ["MR004"]
        assert "handle" in findings[0].message

    def test_mr005_scalar_stage2_key(self):
        findings = lint_file(FIXTURES / "stage2_mr005_scalar_key.py")
        assert rules_fired(findings) == ["MR005"]
        # the composite (token, n) emit two lines later stays clean
        assert findings[0].line == 14

    def test_mr005_only_arms_in_stage2_modules(self):
        source = (FIXTURES / "stage2_mr005_scalar_key.py").read_text()
        assert lint_source(source, "not_a_stage_two.py") == []

    def test_mr006_mutable_default(self):
        findings = lint_file(FIXTURES / "mr006_mutable_default.py")
        assert rules_fired(findings) == ["MR006"]
        assert findings[0].function == "combiner"

    def test_mr007_swallowed_exception(self):
        findings = lint_file(FIXTURES / "mr007_swallow.py")
        assert rules_fired(findings) == ["MR007"]
        assert findings[0].function == "mapper"
        assert "except Exception" in findings[0].message

    def test_mr007_bare_except_fires_even_with_a_body(self):
        source = textwrap.dedent(
            """
            def mapper(line, ctx):
                try:
                    ctx.emit((line, 1), line)
                except:
                    ctx.counter("errors")
            """
        )
        findings = lint_source(source, "jobs.py")
        assert rules_fired(findings) == ["MR007"]
        assert "bare" in findings[0].message

    def test_mr007_reraise_is_sanctioned(self):
        source = textwrap.dedent(
            """
            def mapper(line, ctx):
                try:
                    ctx.emit((line, 1), line)
                except Exception:
                    ctx.counter("errors")
                    raise
            """
        )
        assert lint_source(source, "jobs.py") == []

    def test_clean_module_passes(self):
        assert lint_file(FIXTURES / "clean_module.py") == []

    def test_every_rule_has_a_fixture(self):
        covered = set()
        for path in FIXTURES.glob("*.py"):
            covered.update(rules_fired(lint_file(path)))
        assert covered == set(RULES)


class TestDiscovery:
    def test_job_kwarg_resolution(self):
        # route_records does not match the MR name pattern; it is only
        # discovered through the SampleJob(mapper=...) keyword.
        source = textwrap.dedent(
            """
            STATE = []

            def route_records(line, ctx):
                STATE.append(line)
                ctx.emit((line, 1), line)

            job = SampleJob(mapper=route_records)
            """
        )
        findings = lint_source(source, "jobs.py")
        assert rules_fired(findings) == ["MR001"]
        assert findings[0].function == "route_records"

    def test_unrelated_function_not_linted(self):
        source = textwrap.dedent(
            """
            STATE = []

            def helper(line):
                STATE.append(line)
            """
        )
        assert lint_source(source, "helpers.py") == []

    def test_kernel_function_gets_determinism_rules(self):
        source = textwrap.dedent(
            """
            import random

            def candidate_verify(pairs):
                return [p for p in pairs if random.random() < 0.5]
            """
        )
        findings = lint_source(source, "kernel.py")
        assert rules_fired(findings) == ["MR003"]

    def test_parse_error_reported_as_mr000(self):
        findings = lint_source("def mapper(:\n", "broken.py")
        assert rules_fired(findings) == ["MR000"]

    def test_finding_format(self):
        finding = lint_file(FIXTURES / "mr006_mutable_default.py")[0]
        text = finding.format()
        assert "MR006" in text
        assert "mr006_mutable_default.py" in text
        assert f":{finding.line}:" in text


class TestImportAliases:
    def test_module_alias_resolves_for_mr003(self):
        source = textwrap.dedent(
            """
            import time as t

            def token_mapper(record, ctx):
                ctx.emit((record, 1), t.time())
            """
        )
        findings = lint_source(source, "jobs.py")
        assert rules_fired(findings) == ["MR003"]
        assert "time.time" in findings[0].message

    def test_member_alias_resolves_for_mr003(self):
        source = textwrap.dedent(
            """
            from random import random as rnd

            def token_mapper(record, ctx):
                ctx.emit((record, 1), rnd())
            """
        )
        findings = lint_source(source, "jobs.py")
        assert rules_fired(findings) == ["MR003"]
        assert "random.random" in findings[0].message

    def test_local_shadow_of_alias_is_clean(self):
        source = textwrap.dedent(
            """
            from random import random as rnd

            def token_mapper(record, ctx):
                rnd = lambda: 0.5
                ctx.emit((record, 1), rnd())
            """
        )
        assert lint_source(source, "jobs.py") == []


class TestSuppressions:
    def test_pragma_silences_finding(self):
        source = textwrap.dedent(
            """
            import random

            def token_mapper(record, ctx):
                jitter = random.random()  # mrlint: disable=MR003
                ctx.emit((record, 1), jitter)
            """
        )
        assert lint_source(source, "jobs.py") == []

    def test_unused_pragma_fires_mr009(self):
        findings = lint_file(FIXTURES / "mr009_unused_suppression.py")
        assert rules_fired(findings) == ["MR009"]
        assert "unused suppression" in findings[0].message

    def test_pragma_inside_docstring_is_ignored(self):
        source = textwrap.dedent(
            '''
            def token_mapper(record, ctx):
                """Docs may mention # mrlint: disable=MR003 freely."""
                ctx.emit((record, 1), record)
            '''
        )
        assert lint_source(source, "jobs.py") == []

    def test_disable_all_and_multiple_names(self):
        source = textwrap.dedent(
            """
            import random

            SEEN = []

            def token_mapper(record, ctx):
                SEEN.append(random.random())  # mrlint: disable=MR001, MR003
                ctx.emit((record, 1), record)

            def count_mapper(record, ctx):
                SEEN.append(random.random())  # mrlint: disable=all
                ctx.emit((record, 1), record)
            """
        )
        assert lint_source(source, "jobs.py") == []

    def test_mr1xx_pragmas_belong_to_mrflow(self):
        # a stale MR101 pragma is mrflow's to report, not mrlint's
        source = textwrap.dedent(
            """
            def token_mapper(record, ctx):
                ctx.emit((record, 1), record)  # mrlint: disable=MR101
            """
        )
        assert lint_source(source, "jobs.py") == []


class TestRepoIsClean:
    def test_src_tree_lints_clean(self):
        assert lint_paths([str(SRC)]) == []


class TestCli:
    def test_lint_clean_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "clean_module.py")]) == 0
        assert "clean" in capsys.readouterr().err

    def test_lint_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "mr001_stateful_mapper.py")]) == 1
        out = capsys.readouterr().out
        assert "MR001" in out

    def test_lint_directory(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        # one finding per violation fixture, none from the clean module
        for rule in ("MR001", "MR002", "MR003", "MR004", "MR005", "MR006", "MR007"):
            assert rule in out
        assert "clean_module" not in out
