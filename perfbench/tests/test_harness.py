"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import pytest

import run
import tracing
import workloads
from tracing import TARGETS, Tracer, self_times


def _span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span("a.parent", 0.0, 10.0),
        _span("b.child", 1.0, 4.0, parent=0),
        _span("b.child", 3.0, 6.0, parent=0),   # overlaps the first child
        _span("b.child", 8.0, 9.0, parent=0),
        _span("c.grandchild", 1.5, 2.0, parent=1),
        _span("b.child", 9.5, 12.0, parent=0),  # runs past the parent's end
    ]
    # children cover [1, 6] u [8, 9] u [9.5, 10] = 6.5 of the parent's 10
    assert self_times(spans)[0] == pytest.approx(3.5)
    assert self_times(spans)[1] == pytest.approx(2.5)


def test_self_time_without_children_is_duration():
    assert self_times([_span("a.x", 2.0, 5.0)]) == [3.0]


def test_calls_that_raise_still_count():
    spans = [
        _span(tracing.OP, 0.0, 1.0),
        _span("approximant.effective_order", 0.1, 0.2, parent=0),  # raised
        _span("approximant.effective_order", 0.3, 0.4, parent=0),
    ]
    spans[2][5] = True  # returned a negative rho
    metrics, _ = tracing.layer_metrics(spans, [0])
    assert metrics["approximant.effective_order.calls"] == 2
    assert metrics["approximant.rho_invalid"] == 1


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (99, None),             # p90 would leave 9 samples beyond it
    (100, ("p90", 90, 10)),
    (999, ("p90", 900, 99)),
    (1000, ("p99", 990, 10)),
    (10000, ("p99.9", 9990, 10)),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert run.tail_percentile(list(range(1, n + 1))) == expected


def test_relative_time_uses_the_reference_blocks_on_both_sides():
    # op 0 sits between blocks 0 and 1, op 1 between blocks 1 and 2
    assert run.relative_times([10.0, 30.0], [1.0, 3.0, 9.0]) == [5.0, 5.0]
    with pytest.raises(ValueError):
        run.relative_times([10.0, 30.0], [1.0, 3.0])


def test_per_input_median_weighs_inputs_equally():
    # two inputs in turn: input 0 took 1, 2, 9; input 1 took 10, 20
    assert run.per_input_median([1.0, 10.0, 2.0, 20.0, 9.0], 2) == 8.5


@pytest.mark.parametrize("name", ["cd_arnoldi", "sweep_cli"])
def test_reference_recipe_names_known_kernels(name, tmp_path):
    from reference import Reference
    recipe = workloads.make_workloads(tmp_path)[name].ref_recipe
    assert Reference(recipe).block() > 0


def test_missing_target_fails_loudly():
    bogus = ((tracing.krylov, "build_krylov_renamed", "krylov.build", "function"),)
    with pytest.raises(AttributeError):
        Tracer(targets=bogus).install()


def test_uninstall_restores_every_name():
    import krylovexp.stepper
    original = krylovexp.stepper.build_krylov
    with Tracer():
        assert krylovexp.stepper.build_krylov is not original
    assert krylovexp.stepper.build_krylov is original


# the workload each wrapped function is meant to be exercised by
EXERCISED_BY = {
    "problems.build": "cd_arnoldi",
    "problems.starting_vector": "cd_arnoldi",
    "sparse.matvec": "cd_arnoldi",
    "krylov.build": "cd_arnoldi",
    "krylov.V": "cd_arnoldi",
    "krylov.T": "cd_arnoldi",
    "dense.expm": "cd_arnoldi",
    "dense.phi_dense": "sweep_cli",
    "dense.phi_scalar": "sweep_cli",
    "dense.symtrid_eig": "sweep_cli",
    "approximant.apply": "cd_arnoldi",
    "approximant.effective_order": "cd_arnoldi",
    "estimators.evaluate": "cd_arnoldi",
    "estimators.era": "sweep_cli",
    "estimators.err1": "sweep_cli",
    "estimators.quad_estimates": "cd_arnoldi",
    "stepper.propagate": "cd_arnoldi",
    "stepper.step_size_direct": "cd_arnoldi",
    "stepper.step_size_iterated": "cd_arnoldi",
    "oracle.series": "sweep_cli",
    "oracle.laplacian": "sweep_cli",
    "cli.main": "sweep_cli",
    "cli.sweep": "sweep_cli",
}


def test_every_target_has_a_workload():
    assert sorted(EXERCISED_BY) == sorted(t[2] for t in TARGETS)


@pytest.mark.parametrize("name", sorted(set(EXERCISED_BY.values())))
def test_wrapped_functions_fire_on_their_workload(name, tmp_path):
    wl = workloads.make_workloads(tmp_path)[name]
    tracer = Tracer()
    with tracer:
        state = tracer.run(tracing.SETUP, wl.setup, 0)[0]
        for k in range(wl.inputs(state)):
            wl.prepare(state, k)
            tracer.run(k, wl.run, state, k)
    fired = tracer.fired()
    silent = [t for t, w in EXERCISED_BY.items() if w == name and not fired.get(t)]
    assert not silent, f"wrapped but never called on {name}: {silent}"
