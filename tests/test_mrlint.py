"""MR-contract analyzer, per-function rules: every rule fires on its
fixture exactly once, clean code passes, and the real source tree is
violation-free.  (The rules that look across functions and modules are
in ``test_mrflow.py``; both files drive the one entry point.)

Fixtures live in ``tests/fixtures/mrlint/``; each one seeds exactly one
violation of its rule (and zero violations of every other rule) next to
the sanctioned variant of the same pattern, so these tests pin both the
detection and the non-detection side of each rule.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, Finding, counter_names, lint_file, lint_paths, lint_source
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
        # includes a mapper iterating ``sorted(... for ... in a_set)`` and
        # a monotonic timer read directly and through a helper
        assert lint_file(FIXTURES / "clean_module.py") == []

    def test_every_rule_has_a_fixture(self):
        covered = set()
        for path in FIXTURES.parent.glob("*/*.py"):
            covered.update(rules_fired(lint_file(path)))
        # a file that does not parse cannot sit in a tree other tools
        # walk: MR000 is pinned by test_parse_error_reported_as_mr000
        assert covered == set(RULES) - {"MR000"}


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


class TestRepoIsClean:
    def test_src_tree_lints_clean(self):
        assert lint_paths([str(SRC)]) == []


#: rule -> (real modules copied, the one mutated, its line before, after):
#: one plausible edit to real code per rule, each caught by that rule alone
REAL_CODE_MUTATIONS = {
    "MR000": (
        ["join/stage1.py"], "join/stage1.py",
        "def _count_combiner(token: str, counts: list, ctx: Context) -> None:",
        "def _count_combiner(token: str, counts: list, ctx: Context) -> None",
    ),
    "MR001": (  # a reducer memoises on a module-level function object
        ["join/stage3.py"], "join/stage3.py",
        '            ctx.observe("stage3.pairs_per_rid", pairs)',
        "            _half_side.last_pairs = pairs",
    ),
    "MR002": (  # "dedupe the tokens" with a set, straight into emit()
        ["join/stage1.py"], "join/stage1.py",
        "        for token in tokenizer.tokenize(join_value(line, schema)):",
        "        for token in set(tokenizer.tokenize(join_value(line, schema))):",
    ),
    "MR003": (  # a kernel picks its own seed
        ["core/lsh.py"], "core/lsh.py",
        "    hasher = MinHasher(num_hashes, seed=seed)",
        "    hasher = MinHasher(num_hashes, seed=random.randrange(2**31))",
    ),
    "MR004": (  # the job factory opens a file its mapper closure then reads
        ["join/fullrecord.py"], "join/fullrecord.py",
        "    prefix_length = bounds_for(sim, threshold).prefix_length",
        "    prefix_length = open(token_order_file)",
    ),
    "MR005": (  # a Stage-2 key loses its length component
        ["join/stage2.py"], "join/stage2.py",
        "                ctx.emit((route, n, REL_R), value)",
        "                ctx.emit(route, value)",
    ),
    "MR006": (
        ["join/fullrecord.py"], "join/fullrecord.py",
        "    def mapper(line: str, ctx: Context) -> None:",
        "    def mapper(line: str, ctx: Context, seen: list = []) -> None:",
    ),
    "MR007": (  # try/finally "simplified" into a catch-all
        ["join/fullrecord.py"], "join/fullrecord.py",
        "        finally:",
        "        except:",
    ),
    "MR009": (
        ["join/fullrecord.py"], "join/fullrecord.py",
        "                lines[rid] = line",
        "                lines[rid] = line  # mrlint: disable=MR002",
    ),
    "MR101": (  # a helper the Stage-2 mapper calls iterates a set
        ["core/bitmaps.py", "join/stage2.py"], "core/bitmaps.py",
        "        for rank in tokens:",
        "        for rank in set(tokens):",
    ),
    "MR102": (
        ["join/fullrecord.py"], "join/fullrecord.py",
        "            for rid, ranks, line in values:",
        "            for rid, ranks in values:",
    ),
    "MR103": (
        ["join/fullrecord.py"], "join/fullrecord.py",
        "        partition=lambda key: key[0],",
        "        partition=lambda key: key[3],",
    ),
    "MR104": (
        ["join/stage3.py"], "join/stage3.py",
        '            ctx.observe("stage3.pairs_per_rid", pairs)',
        '            ctx.observe("stage3.pairs_per_rdi", pairs)',
    ),
    "MR106": (  # the release in the reducer's finally block is dropped
        ["join/fullrecord.py"], "join/fullrecord.py",
        "            ctx.release_memory(charged)",
        "            pass",
    ),
}


class TestRulesGuardRealCode:
    """Each rule fires on a one-line mutation of a real ``src/`` module
    — none of them is kept alive by its fixture alone."""

    def test_every_rule_has_a_mutation(self):
        assert set(REAL_CODE_MUTATIONS) == set(RULES)

    @pytest.mark.parametrize("rule", sorted(REAL_CODE_MUTATIONS))
    def test_one_line_mutation_fires_exactly_that_rule(self, rule, tmp_path):
        modules, target, before, after = REAL_CODE_MUTATIONS[rule]
        for module in modules:
            copy = tmp_path / "src" / "repro" / module
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_text((SRC / "repro" / module).read_text())
        assert lint_paths([str(tmp_path)]) == []
        mutated = tmp_path / "src" / "repro" / target
        lines = mutated.read_text().split("\n")
        assert lines.count(before) == 1, f"{target} no longer has the line {before!r}"
        lines[lines.index(before)] = after
        mutated.write_text("\n".join(lines))
        findings = lint_paths([str(tmp_path)])
        assert findings and set(rules_fired(findings)) == {rule}
        assert {f.path for f in findings} <= {str(tmp_path / "src" / "repro" / m) for m in modules}


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

    def test_flow_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["flow", str(SRC)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'flow'" in capsys.readouterr().err

    def test_each_file_is_parsed_once(self, monkeypatch, capsys):
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["lint", str(SRC)]) == 0
        capsys.readouterr()
        assert sorted(parsed) == sorted(str(path) for path in SRC.rglob("*.py"))

    def test_check_registry_fails_on_a_stale_registry(self, tmp_path, monkeypatch, capsys):
        stale = tmp_path / "counter_names.py"
        stale.write_text(
            Path(counter_names.__file__).read_text().replace("'task.retries',\n", "")
        )
        monkeypatch.setattr(counter_names, "__file__", str(stale))
        assert main(["lint", str(SRC), "--check-registry"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_a_join_imports_no_static_analysis(self, tmp_path):
        # the analyzer is a tool; only the runtime sanitizer belongs to a
        # join (cli.import_s is a benchmarked layer)
        catalog = tmp_path / "cat.tsv"
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            f"main(['generate', 'dblp', '50', '-o', {str(catalog)!r}])\n"
            f"main(['selfjoin', {str(catalog)!r}, '-o', {str(tmp_path / 'out.tsv')!r},"
            " '--no-run-manifest'])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        assert result.stdout.strip() == "['repro.analysis.sanitize']"
