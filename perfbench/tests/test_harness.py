"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import numpy as np  # noqa: E402
import numpy.fft  # noqa: E402

import workloads  # noqa: E402  (puts the checkout's src/ on sys.path)
import helmdual  # noqa: E402
from helmdual import grid, resolvent, solver  # noqa: E402
from tracer import LAYERS, METHODS, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _owners():
    modules = {layer: importlib.import_module(f"helmdual.{layer}") for layer in LAYERS}
    classes = [getattr(modules[layer], name) for layer, name, _ in METHODS]
    return [helmdual, numpy.fft, *modules.values(), *classes]


def _bindings():
    return {(id(owner), name): value
            for owner in _owners() for name, value in vars(owner).items()}


def _small_limit():
    g = grid.make_grid(2, 30.0, 64)
    cfg = solver.SolverConfig(grad_tol=1e-6, restart_seeds=workloads.seeded(0)[1:2])
    return solver.solve_limit(1.0, 8.0, g, cfg,
                              resolvent=resolvent.ResolventConfig(delta=1e-2)).energy


def test_every_wrapper_restored_after_traced_pass():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert helmdual.solver.apply_R is not before[(id(helmdual.solver), "apply_R")]
        assert numpy.fft.fftn is not before[(id(numpy.fft), "fftn")]
        _small_limit()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key[1] for key in before if after[key] is not before[key]] == []


def test_wrappers_restored_when_the_pass_raises():
    before = _bindings()
    try:
        with Tracer():
            grid.make_grid(4, 1.0, 8)
    except ValueError:
        pass
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_one_apply_counts_one_application_and_two_transforms():
    g = grid.make_grid(2, 30.0, 32)
    f = grid.Field(g, np.random.default_rng(0).standard_normal(g.shape))
    tracer = Tracer()
    with tracer:
        resolvent.apply_R(f, resolvent.ResolventConfig(delta=1e-3))
    metrics = layer_metrics(tracer.summary())
    assert metrics["resolvent.apply_calls"] == 1
    assert metrics["grid.fft_calls"] == 2
    assert metrics["grid.fft_per_apply"] == 2.0


def test_traced_and_untraced_energies_bit_identical():
    plain = _small_limit()
    with Tracer():
        traced = _small_limit()
    assert traced == plain


def test_seed_outcomes_classified_from_outside():
    g = grid.make_grid(2, 30.0, 64)
    spec = helmdual.ProblemSpec(p=8.0, epsilon=1.0,
                                coefficient=helmdual.constant_coefficient(1.0),
                                resolvent=resolvent.ResolventConfig(delta=1e-2))
    modulated = solver.InitialGuess(width=0.8).build(g)
    # a wide unmodulated bump has its spectrum inside |xi| < 1, where R < 0
    wide = solver.InitialGuess(width=4.0, modulation=0.0).build(g)
    tracer = Tracer()
    with tracer:
        for seed, max_iters in ((modulated, 20000), (modulated, 2), (wide, 20000)):
            try:
                solver.solve_from_seed(seed, spec, solver.SolverConfig(max_iters=max_iters,
                                                                       grad_tol=1e-6))
            except (helmdual.NotInPositiveCone, helmdual.NoConvergence):
                pass
    seeds = tracer.summary().seeds
    assert [s["status"] for s in seeds] == ["converged", "budget", "left_cone"]
    assert seeds[1]["iterations"] == 2 and seeds[2]["iterations"] == 0
    assert all(s["applications"] > 0 for s in seeds)


def test_metric_and_workload_names_match_benchmark_json():
    g = grid.make_grid(2, 30.0, 32)
    tracer = Tracer()
    with tracer:
        resolvent.apply_R(grid.Field(g, np.ones(g.shape)), resolvent.ResolventConfig(delta=1e-3))
    names = set(layer_metrics(tracer.summary())) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
