"""Byte-for-byte CLI outputs on fixed inputs.

``tests/golden/*.elp`` are seeded ontologies: the paper's mayor example,
a normal-form and a general ontology from ``generators.py``, and a
layered knowledge base with a planted component like the benchmark's.
Each case's expected stdout is ``tests/golden/<case>.out`` and its exit
code is listed below; they were produced by an earlier release and pin
saturation (including derivation counts and fired/added statistics) and
relevance output across changes to the engine's internals.
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
    "layered-saturate-k2": ["saturate", "-i", "layered.elp", "--json", "--k", "2"],
    "layered-relevant-ca": ["relevant", "-i", "layered.elp", "--json", "--axiom", "ca P3(pa)"],
    "layered-relevant-ra": ["relevant", "-i", "layered.elp", "--json", "--axiom", "ra q2(pa, pb)"],
    "layered-relevant-gci": ["relevant", "-i", "layered.elp", "--json", "--axiom", "gci P0 <= P3"],
    "layered-relevant-rr": ["relevant", "-i", "layered.elp", "--json", "--axiom", "rr ran(q0) <= P6"],
    "layered-relevant-iq": [
        "relevant", "-i", "layered.elp", "--json", "--axiom", "iq some(q1, P4)(pa)"
    ],
}

EXIT_CODES = {}  # every case exits 0 unless listed here


def resolve(argv):
    return [str(GOLDEN / arg) if arg.endswith(".elp") else arg for arg in argv]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, capsys):
    code = main(resolve(CASES[case]))
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(case, 0)
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
