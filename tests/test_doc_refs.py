"""The doc-reference checker (``scripts/check_doc_refs.py``) that ci.sh
runs over README.md and docs/ARCHITECTURE.md: what it resolves, and
that a stale reference fails it."""

from __future__ import annotations

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_doc_refs", ROOT / "scripts" / "check_doc_refs.py"
)
check_doc_refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_refs)


def _problems(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return check_doc_refs.check(doc)


def test_live_references_resolve(tmp_path):
    assert _problems(
        tmp_path,
        "`scripts/ci.sh`, `cluster/ring.py`, `benchmarks/bench_*.py`,\n"
        "`tests/test_doc_refs.py::test_live_references_resolve`,\n"
        "`repro.cluster.ring.ConsistentHashRing`, `repro.errors`,\n"
        "`python -m repro serve`, `q / tf_scale`, `pl_id`\n",
    ) == []


def test_stale_references_fail_with_their_line(tmp_path):
    problems = _problems(
        tmp_path,
        "fine\n"
        "`src/repro/gone/module.py` and `bench_gone.py`\n"
        "`tests/test_doc_refs.py::test_gone`\n"
        "`repro.gone.module` and `repro.cluster.ring.NoSuchRing`\n",
    )
    assert [p.split(": `")[0].rsplit(":", 1)[1] for p in problems] == [
        "2", "2", "3", "4", "4"
    ]
