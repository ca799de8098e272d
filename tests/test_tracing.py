"""The benchmark's tracer (perfbench/tracing.py) wraps riskquad's entry points
by name; a deleted or renamed one fails here, not only in a traced benchmark run."""

import pathlib

import riskquad.cli as cli
import riskquad.constructions as constructions
import riskquad.core as core
import riskquad.solvers as solvers

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_and_restores_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sample = [
        (solvers, "compass_search"),
        (solvers, "minimize_subgradient"),
        (solvers, "argmin_interval_pwl"),
        (constructions, "argmin_interval_pwl"),
        (constructions, "project_error"),
        (cli, "ingest_scenarios_csv"),
        (cli, "main"),
    ]
    before = [getattr(mod, name) for mod, name in sample]
    init = core.DiscreteRv.__init__
    tracer = tracing.Tracer()
    try:
        tracer.install()
        bound = len(tracer._restore)
        wrapped = [getattr(mod, name).__wrapped__ for mod, name in sample]
        assert core.DiscreteRv.__init__.__wrapped__ is init
    finally:
        tracer.uninstall()
    assert wrapped == before
    assert bound > len(sample)
    assert [getattr(mod, name) for mod, name in sample] == before
    assert core.DiscreteRv.__init__ is init
