"""The collector policy of ``cli.main`` and the assumption behind it.

A command runs with Python's cyclic garbage collector off, after one
collection of the young generations. That costs no memory only if the
library builds no reference cycles, which every library call a golden
case makes is checked for here: under ``gc.disable()``, a full collection
after the call finds nothing unreachable.
"""

import gc

import pytest

from elprov import cli
from elprov.canonical import answer_query, build_canonical_model, compute_rewriting
from elprov.completion import entails, saturate
from elprov.interpretation import parse_query
from elprov.ontology import normalize, parse_ontology
from elprov.provenance import parse_monomial, parse_polynomial
from elprov.relevance import relevant_monomial

from test_golden import CASES, EXIT_CODES, GOLDEN, resolve


def acyclic(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with the collector off; it has to leave no
    unreachable cycle behind."""
    gc.collect()
    gc.disable()
    try:
        result = call(*args, **kwargs)
        assert gc.collect() == 0, call.__name__
    finally:
        gc.enable()
    return result


# the cases whose library calls return; the others stop at an error
ANSWERED = sorted(case for case in CASES if EXIT_CODES.get(case, 0) < 2)


@pytest.mark.parametrize("case", ANSWERED)
def test_golden_library_calls_leave_no_cycles(case):
    args = cli._PARSER.parse_args(resolve(CASES[case]))
    with open(args.input, encoding="utf-8") as fh:
        ontology = acyclic(parse_ontology, fh.read())
    if args.command in ("normalize", "saturate"):
        normalized = acyclic(normalize, ontology)
        if args.command == "saturate":
            acyclic(saturate, normalized, args.k, track_derivations=args.json)
    elif args.command == "entail":
        target = cli._entail_target(args.kind, args.axiom)
        acyclic(entails, ontology, target, parse_monomial(args.prov))
    elif args.command == "relevant":
        text = args.axiom.strip()
        target = (cli.parse_iq_target if text.startswith("iq") else cli.parse_axiom)(text)
        acyclic(relevant_monomial, ontology, target)
    elif args.command == "query":
        with open(args.query, encoding="utf-8") as fh:
            query = acyclic(parse_query, fh.read())
        acyclic(compute_rewriting, query)
        acyclic(answer_query, ontology, query, parse_polynomial(args.prov))
    else:
        assert args.command == "model"
        acyclic(build_canonical_model, ontology)


MAYOR = str(GOLDEN / "mayor.elp")


@pytest.mark.parametrize(
    "argv, code, runs",
    [
        (["normalize", "-i", MAYOR], 0, True),
        (resolve(CASES["entail-assertion-ca-no"]), 1, True),
        (["normalize", "-i", str(GOLDEN / "missing.elp")], 2, True),
        (["saturate", "-i", MAYOR], 3, True),  # under a cap of one axiom
        (["normalize"], 2, False),  # an argparse error
        (["--help"], 0, False),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "usage", "help"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "disabled-by-caller"])
def test_main_restores_the_collector(argv, code, runs, enabled, monkeypatch, capsys):
    # a command that runs does so with the collector off, after one
    # collection of generations 0 and 1 when the caller had it on
    if code == 3:
        monkeypatch.setenv("ELPROV_MAX_AXIOMS", "1")
    during, collections = [], []
    real_normalize = cli.normalize

    def normalize_and_look(ontology):
        during.append(gc.isenabled())
        return real_normalize(ontology)

    def on_collection(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(cli, "normalize", normalize_and_look)
    if not enabled:
        gc.disable()
    gc.callbacks.append(on_collection)
    try:
        assert cli.main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        gc.callbacks.remove(on_collection)
        gc.enable()
    assert not any(during)
    assert collections[-1:] == ([1] if enabled and runs else [])


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "disabled-by-caller"])
def test_an_unexpected_exception_restores_the_collector(enabled, monkeypatch):
    def fail(ontology):
        raise RuntimeError("not an error the command line reports")

    monkeypatch.setattr(cli, "normalize", fail)
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(RuntimeError):
            cli.main(["normalize", "-i", MAYOR])
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
