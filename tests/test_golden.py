"""Byte-for-byte CLI outputs on fixed inputs.

``tests/golden/*.elp`` are seeded ontologies: the paper's mayor example,
a normal-form and a general ontology from ``generators.py``, a layered
knowledge base with a planted component like the benchmark's,
``nested.elp``, whose left-hand sides nest up to depth 4 with Top
conjuncts and fillers, like the benchmark's ``ingest`` inputs,
``order.elp`` and ``joins.elp``, whose three- and five-premise rules have
many instances that share premises (``joins.elp`` has 8,525 over 70
facts), and ``loop.elp``, a self-loop whose canonical model unfolds into
anonymous elements; ``tests/golden/*.cq`` are queries over them. Each
case's expected stdout is ``tests/golden/<case>.out`` and its exit code
is listed below; they pin saturation, relevance, entailment of every
kind, query answering, normalization and the canonical model across
changes to the internals. The ``saturate --json`` cases also pin the counts: ``fired``
and ``derivations`` count rule instances over the saturated set (see
``tests/closure.py``), while ``added`` names the rule that inserted a
fact first and so depends on the order of the joins.
"""

from pathlib import Path

import pytest

from elprov.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "mayor-saturate": ["saturate", "-i", "mayor.elp", "--json"],
    "mayor-saturate-k2": ["saturate", "-i", "mayor.elp", "--json", "--k", "2"],
    "mayor-relevant-ca": ["relevant", "-i", "mayor.elp", "--json", "--axiom", "ca Mayor(Orsoni)"],
    "nf-saturate": ["saturate", "-i", "normal.elp", "--json"],
    "nf-saturate-k1": ["saturate", "-i", "normal.elp", "--json", "--k", "1"],
    "nf-saturate-k2": ["saturate", "-i", "normal.elp", "--json", "--k", "2"],
    "nf-relevant-ca": ["relevant", "-i", "normal.elp", "--json", "--axiom", "ca C14(i0)"],
    "nf-relevant-underivable": [
        "relevant", "-i", "normal.elp", "--json", "--axiom", "ca C3(i1)"
    ],
    "nf-relevant-ra": ["relevant", "-i", "normal.elp", "--json", "--axiom", "ra R0(i2, i2)"],
    "nf-relevant-gci": ["relevant", "-i", "normal.elp", "--json", "--axiom", "gci C1 <= C7"],
    "nf-relevant-ri": ["relevant", "-i", "normal.elp", "--json", "--axiom", "ri R3 <= R0"],
    "nf-relevant-rr": ["relevant", "-i", "normal.elp", "--json", "--axiom", "rr ran(R1) <= C2"],
    "nf-relevant-iq": ["relevant", "-i", "normal.elp", "--json", "--axiom", "iq and(C14, C7)(i0)"],
    "general-saturate": ["saturate", "-i", "general.elp", "--json"],
    "general-saturate-k2": ["saturate", "-i", "general.elp", "--json", "--k", "2"],
    "general-relevant-ca": ["relevant", "-i", "general.elp", "--json", "--axiom", "ca A(c)"],
    "order-saturate-k2": ["saturate", "-i", "order.elp", "--json", "--k", "2"],
    "order-saturate-k3": ["saturate", "-i", "order.elp", "--json", "--k", "3"],
    "joins-saturate": ["saturate", "-i", "joins.elp", "--json"],
    "layered-saturate-k2": ["saturate", "-i", "layered.elp", "--json", "--k", "2"],
    "layered-relevant-ca": ["relevant", "-i", "layered.elp", "--json", "--axiom", "ca P3(pa)"],
    "layered-relevant-ra": ["relevant", "-i", "layered.elp", "--json", "--axiom", "ra q2(pa, pb)"],
    "layered-relevant-gci": ["relevant", "-i", "layered.elp", "--json", "--axiom", "gci P0 <= P3"],
    "layered-relevant-rr": ["relevant", "-i", "layered.elp", "--json", "--axiom", "rr ran(q0) <= P6"],
    "layered-relevant-iq": [
        "relevant", "-i", "layered.elp", "--json", "--axiom", "iq some(q1, P4)(pa)"
    ],
    "entail-assertion-ca": [
        "entail", "-i", "mayor.elp", "--json", "--kind", "assertion",
        "--axiom", "ca Mayor(Brugnaro)", "--prov", "v1*v2*v3*v4",
    ],
    "entail-assertion-ca-no": [
        "entail", "-i", "mayor.elp", "--kind", "assertion",
        "--axiom", "ca Mayor(Brugnaro)", "--prov", "v1*v3*v4",
    ],
    "entail-assertion-ra": [
        "entail", "-i", "mayor.elp", "--json", "--kind", "assertion",
        "--axiom", "ra mayor(Venice, Orsoni)", "--prov", "v1",
    ],
    "entail-gci": [
        "entail", "-i", "layered.elp", "--json", "--kind", "gci",
        "--axiom", "gci P0 <= P3", "--prov", "x2*x4",
    ],
    "entail-gci-no": [
        "entail", "-i", "layered.elp", "--json", "--kind", "gci",
        "--axiom", "gci P0 <= P3", "--prov", "x4",
    ],
    "entail-ri": [
        "entail", "-i", "layered.elp", "--json", "--kind", "ri",
        "--axiom", "ri q0 <= q2", "--prov", "y2*y3",
    ],
    "entail-ri-no": [
        "entail", "-i", "layered.elp", "--json", "--kind", "ri",
        "--axiom", "ri q0 <= q2", "--prov", "y2",
    ],
    "entail-rr": [
        "entail", "-i", "layered.elp", "--json", "--kind", "rr",
        "--axiom", "rr ran(q0) <= P6", "--prov", "y2*z3",
    ],
    "entail-rr-no": [
        "entail", "-i", "layered.elp", "--json", "--kind", "rr",
        "--axiom", "rr ran(q0) <= P6", "--prov", "z3",
    ],
    "entail-iq": [
        "entail", "-i", "mayor.elp", "--json", "--kind", "iq",
        "--axiom", "iq some(predecessor, Mayor)(Brugnaro)", "--prov", "v1*v2*v4",
    ],
    "entail-iq-no": [
        "entail", "-i", "mayor.elp", "--json", "--kind", "iq",
        "--axiom", "iq some(predecessor, Mayor)(Brugnaro)", "--prov", "v1*v2",
    ],
    "entail-kind-mismatch": [
        "entail", "-i", "mayor.elp", "--kind", "gci",
        "--axiom", "ca Mayor(Brugnaro)", "--prov", "v1",
    ],
    "query-polynomial": [
        "query", "-i", "mayor.elp", "-q", "mayor-all.cq", "--json",
        "--prov", "v1*v4 + v1*v2*v3*v4",
    ],
    "query-multiplicity-no": [
        "query", "-i", "mayor.elp", "-q", "mayor-all.cq", "--json", "--prov", "2 v1*v4",
    ],
    "query-foreign-variable": [
        "query", "-i", "mayor.elp", "-q", "mayor-all.cq", "--json", "--prov", "v1*zz",
    ],
    "query-zero": [
        "query", "-i", "mayor.elp", "-q", "mayor-predecessor.cq", "--json", "--prov", "0",
    ],
    "query-zero-no-match": [
        "query", "-i", "mayor.elp", "-q", "mayor-venice.cq", "--json", "--prov", "0",
    ],
    "query-unknown-individual": [
        "query", "-i", "mayor.elp", "-q", "mayor-nobody.cq", "--json", "--prov", "v1",
    ],
    "query-anonymous-matches": [
        "query", "-i", "layered.elp", "-q", "layered-anonymous.cq", "--json",
        "--prov", "v10 + 3 v10*v11",
    ],
    "query-planted": [
        "query", "-i", "layered.elp", "-q", "layered-planted.cq", "--json",
        "--prov", "y1*y2*y3*z3",
    ],
    "model-mayor": ["model", "-i", "mayor.elp"],
    "model-layered": ["model", "-i", "layered.elp"],
    "model-normal": ["model", "-i", "normal.elp"],
    "model-general": ["model", "-i", "general.elp"],
    "model-order": ["model", "-i", "order.elp"],
    "model-loop": ["model", "-i", "loop.elp"],
    "normalize-general": ["normalize", "-i", "general.elp", "--json"],
    "normalize-nested": ["normalize", "-i", "nested.elp", "--json"],
}

# every case exits 0 unless listed here
EXIT_CODES = {
    "entail-assertion-ca-no": 1,
    "entail-gci-no": 1,
    "entail-ri-no": 1,
    "entail-rr-no": 1,
    "entail-iq-no": 1,
    "entail-kind-mismatch": 2,
    "query-multiplicity-no": 1,
    "query-foreign-variable": 1,
    "query-zero-no-match": 1,
    "query-unknown-individual": 2,
}


def resolve(argv):
    return [str(GOLDEN / arg) if arg.endswith((".elp", ".cq")) else arg for arg in argv]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, capsys):
    code = main(resolve(CASES[case]))
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(case, 0)
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
