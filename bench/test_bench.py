"""Self-tests of the benchmark itself.

    python -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fragcheck import automata, fragments  # noqa: E402


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS.values():
        first = run.input_digest(workload.generate(7, 1))
        again = run.input_digest(workload.generate(7, 1))
        other = run.input_digest(workload.generate(8, 1))
        assert first == again, workload.name
        assert first != other, workload.name


def test_self_time_arithmetic_on_nested_spans():
    tracer = spans.Tracer()
    # name, start, end, parent, item: a root with two children, one nested
    tracer.spans = [
        ["fragments.analyze", 0.0, 10.0, -1, 0],
        ["monoid.syntactic_order", 1.0, 4.0, 0, 0],
        ["monoid.j_upset", 2.0, 3.0, 1, 0],
        ["stability.me_s", 5.0, 7.0, 0, 0],
        ["fragments.analyze", 20.0, 21.0, -1, 1],
    ]
    assert tracer.self_times() == [5.0, 2.0, 1.0, 2.0, 1.0]
    assert sum(tracer.self_times()) == tracer.root_time() == 11.0
    metrics = tracer.layer_metrics()
    assert metrics["fragments.analyze.calls"] == (2, "count")
    assert metrics["fragments.analyze.self_s"] == (6.0, "s")
    assert metrics["fragments.analyze.total_s"] == (11.0, "s")
    assert metrics["monoid.syntactic_order.self_s"] == (2.0, "s")
    assert metrics["monoid.submonoid_closure.calls"] == (0, "count")


def test_witness_replay_rejects_planted_witnesses():
    d = automata.minimize(automata.regex_to_dfa("(bc)*"))
    doc = fragments.analyze(d).to_doc()
    assert workloads.witness_failures(d, doc) == []
    negative = [fid for fid, entry in doc["fragments"].items() if not entry["definable"]]
    assert negative
    # a non-idempotent e, and two pairs with e x e = e
    for e, x in (("b", "c"), ("bc", "ε"), ("bc", "bc")):
        planted = json.loads(json.dumps(doc))
        planted["fragments"][negative[0]]["witness"] = {"idempotent": e, "element": x}
        assert workloads.witness_failures(d, planted), (e, x)


def test_bfs_monoid_size_matches_a_known_monoid():
    # (bc)* over {b, c}: identity, b, c, bc, cb and the zero
    d = automata.minimize(automata.regex_to_dfa("(bc)*"))
    assert workloads.bfs_monoid_size(d) == 6


def test_traced_and_untraced_runs_agree():
    workload = workloads.WORKLOADS["corpus"]
    inputs = workload.generate(3, 1)
    items = inputs.items[-40:]
    untraced, errors, _, _ = run.run_items(items)
    tracer = spans.Tracer()
    with tracer.installed():
        traced, traced_errors, _, _ = run.run_items(items, tracer)
    assert not errors and not traced_errors
    assert untraced == traced
    assert tracer.spans
    assert abs(sum(tracer.self_times()) - tracer.root_time()) < 1e-9
    # the wrappers are removed again
    assert fragments.analyze.__module__ == "fragcheck.fragments"
    assert not hasattr(fragments.analyze, "__wrapped__")


def test_local_sizes_match_the_library():
    from fragcheck import monoid, stability

    for _, d in workloads.WORKLOADS["corpus"].generate(4, 1).languages[:80]:
        m = monoid.transition_monoid(d)
        info = stability.stability_info(m, 2)
        idempotents = m.monoid.idempotents()
        me = sum(len(monoid.me_submonoid(m.monoid, e)) for e in idempotents)
        mes = sum(len(stability.me_s(m, info, e)) for e in idempotents)
        assert workloads._local_sizes(m, info) == (me, mes)
