"""The paper's evaluation at its own size: every row of
``benchmarks/paper.py`` runs and passes its check, and the three places
that name the experiments name the same ones."""

import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

import paper  # noqa: E402


@pytest.mark.parametrize("exp_id", list(paper.EXPERIMENTS))
def test_experiment(exp_id):
    experiment = paper.EXPERIMENTS[exp_id]
    experiment.check(experiment.run())


def test_every_experiment_is_indexed():
    """The runner's ids, DESIGN.md §5's index and EXPERIMENTS.md's sections
    are one set: a figure cannot lose its row or its doc entry."""
    design = (REPO / "DESIGN.md").read_text()
    index = design[design.index("\n## 5. "):design.index("\n## 6. ")]
    design_ids = set(re.findall(r"^\| ([^ |]+) \|", index, re.M))
    doc_ids = set(re.findall(r"^## `([^`]+)`",
                             (REPO / "EXPERIMENTS.md").read_text(), re.M))
    assert set(paper.EXPERIMENTS) == design_ids == doc_ids
