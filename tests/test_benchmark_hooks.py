"""The names the benchmark's traced run and checks patch must exist.

``benchmark/layers.py`` wraps functions where the package's own modules look
them up, and the ``cohort_eval`` checks patch ``segment``, ``build_band`` and
``evaluate`` on ``gaitmae.cli``. A refactor that drops or renames one of
those names breaks only ``run.py --trace 1`` or ``cohort_eval``, with an
AttributeError; this test makes it fail here instead.
"""

from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture()
def benchmark_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))


def test_traced_run_wraps_names_that_exist(benchmark_path):
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install(tracer)   # AttributeError on a name the package dropped
    finally:
        tracer.restore()


def test_cohort_eval_patches_its_cli_names(benchmark_path, tmp_path):
    import gaitmae.cli as cli
    import workloads

    before = {name: getattr(cli, name) for name in ("segment", "build_band", "evaluate")}
    workload = workloads.CohortEval(0, tmp_path, workloads.NullTracer())
    workload.close()
    assert {name: getattr(cli, name) for name in before} == before

