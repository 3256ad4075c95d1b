"""MR-contract analyzer, per-function rules: every rule fires on its
fixture exactly once, clean code passes, and the real source tree is
violation-free; and the contracts the analyzer leaves to run time are
caught there.  (The rules that look across functions and modules are
in ``test_mrflow.py``; both files drive the one entry point.)

Fixtures live in ``tests/fixtures/mrlint/``; each one seeds exactly one
violation of its rule (and zero violations of every other rule) next to
the sanctioned variant of the same pattern, so these tests pin both the
detection and the non-detection side of each rule.
"""

import ast
import os
import shutil
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
        '        ctx.observe("stage3.pairs_per_rid", pairs)',
        "        _half_side.last_pairs = pairs",
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
    "MR006": (
        ["join/fullrecord.py"], "join/fullrecord.py",
        "    def mapper(line: str, ctx: Context) -> None:",
        "    def mapper(line: str, ctx: Context, seen: list = []) -> None:",
    ),
    "MR007": (  # the kernel's try/finally "simplified" into a catch-all
        ["core/ppjoin.py"], "core/ppjoin.py",
        "        finally:",
        "        except:",
    ),
    "MR101": (  # a helper the Stage-2 mapper calls iterates a set
        ["core/bitmaps.py", "join/stage2.py"], "core/bitmaps.py",
        "        for rank in tokens:",
        "        for rank in set(tokens):",
    ),
}


def edit_line(path: Path, before: str, after: str) -> None:
    """Replace the one line of *path* that reads *before*."""
    lines = path.read_text().split("\n")
    assert lines.count(before) == 1, f"{path} no longer has the line {before!r}"
    lines[lines.index(before)] = after
    path.write_text("\n".join(lines))


def copy_src(tmp_path: Path) -> Path:
    """A copy of the real ``src/`` tree under *tmp_path*."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


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
        edit_line(tmp_path / "src" / "repro" / target, before, after)
        findings = lint_paths([str(tmp_path)])
        assert findings and set(rules_fired(findings)) == {rule}
        assert {f.path for f in findings} <= {str(tmp_path / "src" / "repro" / m) for m in modules}


#: edits that break a contract between stages, which no rule checks
#: (DESIGN.md §5c lists them under the ids they once had): module, its
#: line before and after, and the join that runs it
RUNTIME_GUARDED_MUTATIONS = {
    "MR005": (  # a Stage-2 key loses its length component
        "join/stage2.py",
        "                ctx.emit((route, n, REL_R), value)",
        "                ctx.emit(route, value)",
        "stage2",
    ),
    "MR102": (  # a reducer destructures one field fewer than is emitted
        "join/fullrecord.py",
        "        for rid, ranks, line in values:",
        "        for rid, ranks in values:",
        "fullrecord",
    ),
    "MR103": (  # a grouping key indexes past the emitted key
        "join/fullrecord.py",
        "        group_key=lambda key: key[0],",
        "        group_key=lambda key: key[3],",
        "fullrecord",
    ),
}

#: runs the Stage-2 self-join or the full-record ablation on 200 records
_JOIN_SCRIPT = """
import sys
from repro.data.synthetic import generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.join.fullrecord import full_record_self_join
from repro.mapreduce import SimulatedCluster
cluster = SimulatedCluster()
cluster.dfs.write("r", generate_dblp(200, 7))
join = {"stage2": ssjoin_self, "fullrecord": full_record_self_join}[sys.argv[1]]
report = join(cluster, "r", JoinConfig(threshold=0.5))
print(len(list(cluster.dfs.read_all(report.output_file))))
"""


class TestRuntimeGuards:
    """A Stage-2 key without its length, or a reducer or grouping key
    that disagrees with the emitted shape, fails the join it touches —
    the suite, not the analyzer, holds those contracts."""

    @staticmethod
    def _join(src: Path, join: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", _JOIN_SCRIPT, join],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    @pytest.mark.parametrize("rule", sorted(RUNTIME_GUARDED_MUTATIONS))
    def test_join_fails_on_the_edit(self, rule, tmp_path):
        target, before, after, join = RUNTIME_GUARDED_MUTATIONS[rule]
        src = copy_src(tmp_path)
        clean = self._join(src, join)
        assert clean.returncode == 0, clean.stderr
        assert int(clean.stdout) > 0
        edit_line(src / "repro" / target, before, after)
        edited = self._join(src, join)
        assert edited.returncode != 0
        assert "TaskError" in edited.stderr


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
        for rule in ("MR001", "MR002", "MR003", "MR004", "MR006", "MR007"):
            assert rule in out
        assert "clean_module" not in out

    def test_flow_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["flow", str(SRC)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'flow'" in capsys.readouterr().err

    def test_format_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", str(SRC), "--format", "sarif"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

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

    @pytest.mark.parametrize("stale", ["dropped-name", "counter-typo"])
    def test_check_registry_fails_on_a_stale_registry(
        self, stale, tmp_path, monkeypatch, capsys
    ):
        tree = SRC
        if stale == "dropped-name":
            registry = tmp_path / "counter_names.py"
            registry.write_text(
                Path(counter_names.__file__).read_text().replace("'task.retries',\n", "")
            )
            monkeypatch.setattr(counter_names, "__file__", str(registry))
            monkeypatch.setattr(
                counter_names,
                "KNOWN_COUNTER_NAMES",
                counter_names.KNOWN_COUNTER_NAMES - {"task.retries"},
            )
            added = "+ task.retries"
        else:  # one counter literal misspelt in the source tree
            tree = copy_src(tmp_path)
            edit_line(
                tree / "repro" / "join" / "stage3.py",
                '        ctx.observe("stage3.pairs_per_rid", pairs)',
                '        ctx.observe("stage3.pairs_per_rdi", pairs)',
            )
            added = "+ stage3.pairs_per_rdi"
        assert main(["lint", str(tree), "--check-registry"]) == 1
        err = capsys.readouterr().err
        assert "stale" in err
        assert f"  {added}" in err.splitlines()

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
