"""Tests of the benchmark itself: determinism, the checker and the tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from elprov import cli  # noqa: E402
from elprov.ontology import CA, RA, parse_axiom, parse_ontology  # noqa: E402
from elprov.provenance import parse_monomial  # noqa: E402


def _load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("oracle", module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _answer(request):
    code, out, _ = run.invoke(cli.main, request.argv)
    return code, out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    def files(directory):
        directory.mkdir()
        argvs = []
        for i in range(4):
            request = workloads.make_request(workload, 7, i, directory)
            argvs.append([a.replace(str(directory), "<dir>") for a in request.argv])
        return argvs, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    assert files(tmp_path / "a") == files(tmp_path / "b")
    other = tmp_path / "c"
    other.mkdir()
    first = workloads.make_request(workload, 8, 0, other)
    assert Path(first.argv[2]).read_bytes() != (tmp_path / "a" / Path(first.argv[2]).name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_answers_match_every_request_class(workload, tmp_path):
    for seed in (3, 4):
        for i in range(workloads.request_classes(workload)):
            request = workloads.make_request(workload, seed, i, tmp_path)
            code, out = _answer(request)
            assert checks.check(request, code, out) is None, (seed, request.cls)


def test_every_tabulated_planted_answer(tmp_path):
    path = tmp_path / "planted.elp"
    path.write_text("\n".join(workloads.PLANTED) + "\n", encoding="utf-8")
    for kind, variants in workloads.ENTAIL_VARIANTS.items():
        for axiom, mon, entailed in variants:
            argv = ["entail", "-i", str(path), "--kind", kind, "--axiom", axiom, "--prov", mon]
            request = workloads.Request(f"entail:{kind}", argv, {"entailed": entailed})
            assert checks.check(request, *_answer(request)) is None, (axiom, mon)
    for kind, targets in workloads.RELEVANT_TARGETS.items():
        for axiom, names in targets:
            argv = ["relevant", "-i", str(path), "--axiom", axiom]
            request = workloads.Request(f"relevant:{kind}", argv, {"relevant": sorted(names.split())})
            assert checks.check(request, *_answer(request)) is None, axiom


def _wrong(request, code, out):
    """A plausible but wrong answer for ``request``."""
    kind = request.cls.split(":")[0]
    if kind == "entail":
        return 1 - code, "not entailed\n" if code == 0 else "entailed\n"
    if kind == "relevant":
        return code, "\n".join(out.split()[1:]) + "\n"
    if kind == "query":
        data = json.loads(out)
        data["query_provenance"] = "2 " + data["query_provenance"].split(" + ")[0]
        return code, json.dumps(data)
    data = json.loads(out)
    data["axioms"] = data["axioms"][:-1]
    return code, json.dumps(data)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_flags_an_injected_wrong_answer(workload, tmp_path):
    request = workloads.make_request(workload, 5, 0, tmp_path)
    code, out = _answer(request)
    assert checks.check(request, code, out) is None
    assert checks.check(request, *_wrong(request, code, out)) is not None
    assert checks.check(request, None, "") is not None  # a crashed request


def test_checker_flags_a_wrong_match_count(tmp_path):
    request = workloads.make_request("query", 5, 1, tmp_path)  # the fork template
    code, out = _answer(request)
    data = json.loads(out)
    data["matches"] += 1
    assert checks.check(request, code, json.dumps(data)) is not None


def test_planted_assertions_agree_with_the_chase_oracle():
    oracle = _load_oracle()
    chased = oracle.chase(parse_ontology("\n".join(workloads.PLANTED)))
    for axiom_text, yes, no in workloads.ENTAIL_QUESTIONS["assertion"]:
        axiom = parse_axiom(axiom_text)
        for text, expected in [(m, True) for m in yes] + [(m, False) for m in no]:
            mon = parse_monomial(text)
            if isinstance(axiom, CA):
                assert chased.holds_ca(axiom.concept.name, axiom.ind, mon) is expected, (axiom_text, text)
            else:
                assert isinstance(axiom, RA)
                assert chased.holds_ra(axiom.role, axiom.a, axiom.b, mon) is expected, (axiom_text, text)


def test_background_does_not_change_planted_facts():
    import random

    oracle = _load_oracle()
    planted = oracle.chase(parse_ontology("\n".join(workloads.PLANTED)))
    small = dict(layers=2, width=3, roles=2, inds=4, nvars=6)
    lines = workloads.layered_kb(random.Random(1), **small) + list(workloads.PLANTED)
    mixed = oracle.chase(parse_ontology("\n".join(lines)))
    names = {"P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"}
    assert {f for f in mixed.concept_facts if f[0] in names} == planted.concept_facts
    assert {f for f in mixed.role_facts if f[0].startswith("q")} == planted.role_facts


def test_planted_query_reference_on_a_hand_computed_graph():
    # n0 -> n1, n1 -> n0, n1 -> n1; both in group 0
    group, edges = [0, 0], [(0, 1), (1, 0), (1, 1)]
    cycle = checks.planted_query_answer("cycle", group, edges)
    assert cycle == {frozenset({"we0", "we1"}): 2, frozenset({"we2"}): 1}
    fork = checks.planted_query_answer("fork", group, edges)
    # named targets: n0 has one predecessor, n1 has two (n0, n1) -> 1 + 4;
    # the shared anonymous successor forces x = z -> 2 more
    assert sum(fork.values()) == 7
    assert fork[frozenset({"wa0", "wb"})] == 2


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, None, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 2.0, 3.0, 1, 1),
        ("c", 5.0, 9.0, 0, 1),
        ("a", 6.0, 7.0, 3, 1),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    metrics = tracer.layer_metrics(spans, {1: {"ontology.normalize.axioms_out": 4}}, [1])
    assert metrics["ontology.normalize.axioms_out"] == 4
    spans = [(tracer.ROOT, 0.0, 0.01, None, 1), ("ontology.normalize", 0.002, 0.005, 0, 1)]
    metrics = tracer.layer_metrics(spans, {}, [1])
    assert metrics["cli.main.self_ms_per_req"] == pytest.approx(7.0)
    assert metrics["ontology.normalize.calls_per_req"] == 1


def test_tracer_restores_the_program_and_counts_calls(tmp_path):
    import elprov.canonical
    import elprov.relevance

    original = elprov.relevance.merged_saturate
    tr = tracer.Tracer()
    root = tr.wrap(tracer.ROOT, cli.main)
    request = workloads.make_request("relevant", 2, 0, tmp_path)  # a ca target
    assert request.cls == "relevant:ca"
    tr.request = 0
    tr.install()
    try:
        code, out, _ = run.invoke(root, request.argv)
    finally:
        tr.uninstall()
    assert elprov.relevance.merged_saturate is original
    assert elprov.cli.merged_saturate is original
    assert checks.check(request, code, out) is None
    metrics = tracer.layer_metrics(tr.spans, tr.counts, [0])
    assert metrics["relevance.merged_saturate.calls_per_req"] == 2
    assert metrics["cli.main.calls_per_req"] == 1
    assert metrics["relevance.merged_saturate.entries"] > 0
    assert elprov.canonical.saturate is elprov.completion.saturate
