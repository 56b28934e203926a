"""Thread dependence graphs: readiness, profiles, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.threads.graph import ThreadGraph


def diamond() -> ThreadGraph:
    """a -> (b, c) -> d."""
    g = ThreadGraph("diamond")
    a = g.add_thread(1.0)
    b = g.add_thread(2.0)
    c = g.add_thread(3.0)
    d = g.add_thread(1.0)
    g.add_dependency(a, b)
    g.add_dependency(a, c)
    g.add_dependency(b, d)
    g.add_dependency(c, d)
    return g


class TestConstruction:
    def test_add_thread_returns_sequential_ids(self):
        g = ThreadGraph()
        assert [g.add_thread(1.0) for _ in range(3)] == [0, 1, 2]

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            ThreadGraph().add_thread(-1.0)

    def test_self_dependency_rejected(self):
        g = ThreadGraph()
        t = g.add_thread(1.0)
        with pytest.raises(ValueError):
            g.add_dependency(t, t)

    def test_unknown_thread_rejected(self):
        g = ThreadGraph()
        g.add_thread(1.0)
        with pytest.raises(IndexError):
            g.add_dependency(0, 7)

    def test_total_work(self):
        assert diamond().total_work() == pytest.approx(7.0)

    def test_compiled_graph_cannot_grow(self):
        g = diamond()
        g.initially_ready()
        with pytest.raises(RuntimeError):
            g.add_thread(1.0)
        with pytest.raises(RuntimeError):
            g.add_dependency(0, 3)

    def test_shape_is_csr_in_dependency_order(self):
        shape = diamond().shape
        assert shape.succ_offsets == (0, 2, 3, 4, 4)
        assert shape.succ_targets == (1, 2, 3, 3)
        assert shape.n_predecessors == (0, 1, 1, 2)
        assert shape.roots == (0,)

    def test_instance_from_shape_shares_it(self):
        shape = diamond().shape
        g = ThreadGraph("copy", shape, [2.0, 1.0, 1.0, 2.0])
        assert g.shape is shape
        assert g.node(3).n_predecessors == 2
        assert g.node(0).successors == (1, 2)
        assert g.total_work() == pytest.approx(6.0)
        assert sorted(g.complete(0)) == [1, 2]

    def test_instance_needs_one_valid_service_per_thread(self):
        shape = diamond().shape
        with pytest.raises(ValueError):
            ThreadGraph("short", shape, [1.0, 1.0])
        with pytest.raises(ValueError):
            ThreadGraph("negative", shape, [1.0, -1.0, 1.0, 1.0])


class TestReadiness:
    def test_initially_ready_are_roots(self):
        assert diamond().initially_ready() == [0]

    def test_completion_unblocks_successors(self):
        g = diamond()
        assert sorted(g.complete(0)) == [1, 2]

    def test_join_waits_for_all_predecessors(self):
        g = diamond()
        g.complete(0)
        assert g.complete(1) == []
        assert g.complete(2) == [3]

    def test_double_completion_raises(self):
        g = diamond()
        g.complete(0)
        with pytest.raises(RuntimeError):
            g.complete(0)

    def test_all_done(self):
        g = diamond()
        for tid in (0, 1, 2, 3):
            assert not g.all_done
            g.complete(tid)
        assert g.all_done

    def test_reset_restores_initial_state(self):
        g = diamond()
        g.complete(0)
        g.reset()
        assert g.n_completed == 0
        assert g.initially_ready() == [0]
        assert sorted(g.complete(0)) == [1, 2]


class TestAnalysis:
    def test_validate_acyclic_passes_dag(self):
        diamond().validate_acyclic()

    def test_validate_acyclic_catches_cycle(self):
        g = ThreadGraph("cyclic")
        a = g.add_thread(1.0)
        b = g.add_thread(1.0)
        g.add_dependency(a, b)
        g.add_dependency(b, a)
        with pytest.raises(ValueError):
            g.validate_acyclic()

    def test_critical_path_diamond(self):
        # a(1) -> c(3) -> d(1) = 5
        assert diamond().critical_path() == pytest.approx(5.0)

    def test_critical_path_chain(self):
        g = ThreadGraph()
        ids = [g.add_thread(2.0) for _ in range(4)]
        for a, b in zip(ids, ids[1:]):
            g.add_dependency(a, b)
        assert g.critical_path() == pytest.approx(8.0)

    def test_critical_path_empty(self):
        assert ThreadGraph().critical_path() == 0.0


class TestParallelismProfile:
    def test_flat_fan_runs_at_machine_width(self):
        g = ThreadGraph()
        for _ in range(8):
            g.add_thread(1.0)
        profile = g.parallelism_profile(4)
        assert profile.execution_time == pytest.approx(2.0)
        assert profile.time_at_level[4] == pytest.approx(1.0)
        assert profile.average_demand == pytest.approx(4.0)

    def test_chain_runs_at_level_one(self):
        g = ThreadGraph()
        ids = [g.add_thread(1.0) for _ in range(3)]
        for a, b in zip(ids, ids[1:]):
            g.add_dependency(a, b)
        profile = g.parallelism_profile(4)
        assert profile.time_at_level == {1: pytest.approx(1.0)}
        assert profile.execution_time == pytest.approx(3.0)

    def test_fractions_sum_to_one(self):
        profile = diamond().parallelism_profile(16)
        assert sum(profile.time_at_level.values()) == pytest.approx(1.0)

    def test_profile_restores_graph(self):
        g = diamond()
        g.parallelism_profile(4)
        assert g.n_completed == 0

    def test_fewer_processors_never_faster(self):
        g = diamond()
        wide = g.parallelism_profile(16).execution_time
        narrow = g.parallelism_profile(1).execution_time
        assert narrow >= wide

    def test_single_processor_time_is_total_work(self):
        g = diamond()
        assert g.parallelism_profile(1).execution_time == pytest.approx(g.total_work())

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            diamond().parallelism_profile(0)

    def test_max_parallelism_diamond(self):
        assert diamond().max_parallelism() == 2


@st.composite
def random_dag(draw):
    """A random DAG with edges only from lower to higher ids (acyclic)."""
    n = draw(st.integers(min_value=1, max_value=25))
    g = ThreadGraph("random")
    for _ in range(n):
        g.add_thread(draw(st.floats(min_value=0.01, max_value=5.0)))
    for after in range(1, n):
        for before in range(after):
            if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
                g.add_dependency(before, after)
    return g


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_property_greedy_schedule_completes_everything(graph):
    """Any forward-edge DAG list-schedules to completion with sane bounds."""
    graph.validate_acyclic()
    profile = graph.parallelism_profile(4)
    lower = max(graph.critical_path(), graph.total_work() / 4)
    assert profile.execution_time >= lower - 1e-9
    assert profile.execution_time <= graph.total_work() + 1e-9
    assert sum(profile.time_at_level.values()) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_property_completion_order_covers_all(graph):
    """Repeated complete() over ready sets touches every thread exactly once."""
    ready = list(graph.initially_ready())
    done = 0
    while ready:
        tid = ready.pop()
        ready.extend(graph.complete(tid))
        done += 1
    assert done == graph.n_threads
    assert graph.all_done
