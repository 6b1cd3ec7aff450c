"""Every function of the library is one that some command enters.

Runs every ``test_golden.CASES`` command, the subcommand forms those
leave out (``rewrite``, plain-text ``saturate``) and the command line's
error paths (a parse error, a missing file, a ``--kind`` mismatch, an
unknown-name warning, a namespace clash, the ``ELPROV_MAX_AXIOMS`` cap on
``saturate`` and ``model``) under ``sys.setprofile``, then fails on any
``def`` in ``src/elprov`` that no call entered. Dunders are exempt, and so
is the short ``KEPT`` list below, which has to name defs of the library
that no command enters. A helper only the tests use belongs in
``tests/``, not in the library.
"""

import ast
import sys
import warnings
from pathlib import Path

import elprov
from elprov.cli import main

from test_golden import CASES, EXIT_CODES, GOLDEN, resolve

SRC = Path(elprov.__file__).resolve().parent

# module.qualname of the defs no command enters, each kept for a reason
KEPT = {
    # run at import, before any command
    "completion._compile_rules",
    "cli._build_parser",
    "cli._build_parser.common",
    # the paper's semiring specialization of a query polynomial
    "provenance.evaluate",
    "provenance.Polynomial.monomials",
    # k, the saturation bound, is a degree bound
    "provenance.Monomial.degree",
    # documented in README; tests/closure.py reads it
    "completion.SaturatedSet.contains",
    # perfbench/tracer.py reads them
    "relevance.MergedSet.entries",
    "interpretation.AnnotatedInterpretation.is_aux",
}

MAYOR = str(GOLDEN / "mayor.elp")
LAYERED = str(GOLDEN / "layered.elp")


def library_defs():
    """(module.qualname, lines that start it) of every def in the library:
    a decorated def's code starts at its ``def`` or at its first decorator,
    depending on the Python version."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                starts = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                yield name, starts
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, starts in walk(tree, path.stem + "."):
            yield name, str(path), starts


def show_warning(message, category, filename, lineno, file=None, line=None):
    # what the interpreter's own hook does, outside pytest's warning recorder
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_every_command(tmp_path, monkeypatch, capsys) -> set:
    """The code objects entered while every command runs."""
    bad = tmp_path / "bad.elp"
    bad.write_text("ca A(a) @ v\ngci and(A B) <= C @ v\n")
    clash = tmp_path / "clash.elp"
    clash.write_text("ca A(x) @ v\ngci some(R, A) <= R @ v\n")
    unknown = ["entail", "-i", MAYOR, "--kind", "assertion", "--axiom", "ra S(a, a)", "--prov", "1"]
    errors = [
        (["saturate", "-i", str(bad)], 2, f"{bad}:2:11: expected ','"),
        (["saturate", "-i", str(tmp_path / "missing.elp")], 2, "error: "),
        (["entail", "-i", MAYOR, "--kind", "gci", "--axiom", "ca Mayor(Brugnaro)", "--prov", "v1"],
         2, "error: --kind gci expects"),
        (unknown, 1, "warning: queried assertion mentions names unknown to the ontology"),
        (["normalize", "-i", str(clash)], 2, f"{clash}:2:1: name 'R' used both as role"),
    ]
    capped = [(["saturate", "-i", LAYERED], 3, "error: "), (["model", "-i", LAYERED], 3, "error: ")]
    entered: set = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def run(argv, code, err=None):
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            got = main(argv)
        finally:
            sys.setprofile(previous)
        captured = capsys.readouterr()
        assert got == code, argv
        assert err is None or err in captured.err, (argv, captured.err)

    for case, argv in CASES.items():
        run(resolve(argv), EXIT_CODES.get(case, 0))
    query = str(GOLDEN / "layered-anonymous.cq")
    for argv in (["saturate", "-i", MAYOR], ["rewrite", "-q", query], ["rewrite", "-q", query, "--json"]):
        run(argv, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show_warning
        for argv, code, err in errors:
            run(argv, code, err)
    monkeypatch.setenv("ELPROV_MAX_AXIOMS", "1")
    for argv, code, err in capped:
        run(argv, code, err)
    return entered


def test_every_library_def_is_entered_by_a_command(tmp_path, monkeypatch, capsys):
    entered = run_every_command(tmp_path, monkeypatch, capsys)
    places = {(code.co_filename, code.co_firstlineno) for code in entered}
    starts = {(str(Path(file).resolve()), line) for file, line in places}
    defs = {  # module.qualname -> whether a command entered it
        name: any((path, line) in starts for line in lines) for name, path, lines in library_defs()
    }
    unreached = [
        name
        for name, reached in defs.items()
        if not reached
        and not (name.rsplit(".", 1)[1].startswith("__") and name.endswith("__"))
        and name not in KEPT
    ]
    assert not unreached, f"defs no command enters: {unreached}"
    stale = sorted(name for name in KEPT if defs.get(name, True))
    assert not stale, f"KEPT names defs that are gone or that a command enters: {stale}"
