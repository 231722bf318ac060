"""Seeded set files keep their source sets' verdicts.

Run with `python3 -m pytest bench` from the repository root.
"""

from __future__ import annotations

import json
import random

import pytest

import run
from setfiles import SOURCES, source_documents, transform, write_set_files


@pytest.fixture(scope="module")
def docs():
    return source_documents(run.SRC)


def test_same_seed_same_files(docs, tmp_path):
    a = write_set_files(docs, tmp_path / "a", 7)
    b = write_set_files(docs, tmp_path / "b", 7)
    c = write_set_files(docs, tmp_path / "c", 8)
    for name in SOURCES:
        assert a[name].read_bytes() == b[name].read_bytes()
    assert any(a[n].read_bytes() != c[n].read_bytes() for n in SOURCES)


def test_transform_keeps_the_document_shape(docs):
    for name in SOURCES:
        doc = docs[name]
        out = transform(doc, random.Random(3))
        assert out["conductor"] == doc["conductor"]
        assert out["name"] == doc["name"]
        assert len(out["rays"]) == len(doc["rays"])
        # remapped bases are checked for orthogonality when a file loads
        assert len(out["declared_bases"]) == len(doc["declared_bases"])
        assert json.loads(json.dumps(out)) == out
        n = doc["conductor"]
        for ray in out["rays"]:
            for comp in ray:
                assert all(0 <= p < n for p, _, _ in comp)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_transformed_files_pass_their_checks(seed, tmp_path):
    """verify, bases, symmetry and majorana per file, and game on new33."""
    jobs = run.set_file_jobs(tmp_path, seed)
    assert {j.argv[0] for j in jobs} == {"verify", "bases", "symmetry", "majorana", "game"}
    for job in jobs:
        result = run.run_job(job, tmp_path)
        assert result.error is None, (job.name, result.error)
