"""What a join process loads: the code and native libraries it runs.

``cli.import_s`` and ``peak_rss_mb`` are benchmarked, and every module
a CLI join imports counts in both: ``hashlib`` alone maps OpenSSL's
libcrypto (about 3.7 MiB) to compute what CPython's built-in SHA-256
module computes.
"""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.loaders import write_records
from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.mapreduce.hashing import sha256

SRC = Path(__file__).parent.parent / "src"

#: loaded by ``--checkpoint``, ``--parallel``, ``generate`` or the
#: single-node baselines, never by a plain join
NOT_LOADED_BY_A_JOIN = (
    "pickle",
    "datetime",
    "multiprocessing",
    "repro.join.checkpoint",
    "repro.mapreduce.diskdfs",
    "repro.mapreduce.executor",
    "repro.data.synthetic",
    "repro.core.lsh",
    "repro.core.naive",
)
#: only where the interpreter has a built-in SHA-256 to use instead
OPENSSL = ("_hashlib", "hashlib")
BUILTIN_SHA256 = sha256 is not hashlib.sha256

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.join",
    "repro.data",
    "repro.mapreduce",
    "repro.obs",
    "repro.analysis",
)


@pytest.fixture(scope="module")
def catalogs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    r, s = root / "r.tsv", root / "s.tsv"
    dblp = generate_dblp(80, seed=7)
    write_records(str(r), dblp)
    write_records(str(s), generate_citeseerx(60, seed=9, rid_base=10_000_000, shared_with=dblp))
    return root, str(r), str(s)


def _modules_after(argv: list[str]) -> set[str]:
    """The module names loaded by a fresh ``repro`` process running *argv*."""
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('\\n'.join(sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return set(result.stdout.split())


@pytest.mark.parametrize("command", ["selfjoin", "rsjoin"])
def test_a_join_with_its_run_manifest_loads_only_what_it_runs(catalogs, command):
    root, r, s = catalogs
    inputs = [r] if command == "selfjoin" else [r, s]
    loaded = _modules_after(
        [command, *inputs, "-o", str(root / f"{command}.tsv"),
         "--runs-dir", str(root / "runs")]
    )
    assert "repro.obs.runs" in loaded  # the manifest is on
    unexpected = NOT_LOADED_BY_A_JOIN + (OPENSSL if BUILTIN_SHA256 else ())
    assert sorted(loaded.intersection(unexpected)) == []


def test_a_checkpointed_join_loads_the_checkpoint_store(catalogs):
    root, r, _ = catalogs
    loaded = _modules_after(
        ["selfjoin", r, "-o", str(root / "ck.tsv"), "--no-run-manifest",
         "--checkpoint", str(root / "ck")]
    )
    assert {"repro.join.checkpoint", "repro.mapreduce.diskdfs"} <= loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018
