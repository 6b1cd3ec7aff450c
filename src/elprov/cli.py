"""Command line front end.

Subcommands: normalize, saturate, entail, relevant, query, model,
rewrite. Exit codes: 0 entailed/success, 1 not entailed, 2 usage or
parse error, 3 resource cap exceeded. A parse error of an ontology file,
a query file, ``--axiom`` or ``--prov`` is one ``SOURCE:LINE:COL:
message`` line on stderr, ``SOURCE`` the file or the option; any other
error is one ``error: ...`` line. A library warning (a queried assertion
over unknown names) is one ``warning: ...`` line.
``--json`` switches every subcommand to machine-readable output
validating against the schemas shipped in ``elprov/schemas``. The
environment variable ``ELPROV_MAX_AXIOMS`` overrides the derived-axiom
cap of every subcommand that saturates or builds a model.

Each question is one library call: ``entail`` calls
``completion.entails``, ``relevant`` calls ``relevance.relevant_monomial``
and ``query`` calls ``canonical.answer_query``; this module only parses
arguments and prints answers.

The library builds no reference cycles, so a command runs with the cyclic
garbage collector off, after one collection of the young generations for
the cycles a calling process left; ``main`` then restores its state.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings

from .canonical import answer_query, build_canonical_model, compute_rewriting, render_rewriting
from .completion import Limits, ResourceCapExceeded, entails, saturate
from .interpretation import QueryError, parse_query
from .ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedOntology,
    ParseError,
    normalize,
    parse_axiom,
    parse_iq_target,
    parse_ontology,
    render_annotated,
)
from .provenance import parse_monomial, parse_polynomial
from .relevance import relevant_monomial

EXIT_ENTAILED = 0
EXIT_NOT_ENTAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCES = 3


def _limits() -> Limits:
    cap = os.environ.get("ELPROV_MAX_AXIOMS")
    if not cap:
        return Limits()
    if not cap.isdecimal() or int(cap) <= 0:
        raise ValueError(f"ELPROV_MAX_AXIOMS must be a positive integer, got {cap!r}")
    return Limits(max_axioms=int(cap))


def _parsed(parse, text: str, source: str):
    """``parse(text)``; a parse error names ``source``, a file or an option."""
    try:
        return parse(text)
    except ParseError as exc:
        exc.source = source
        raise


def _load_ontology(path: str) -> AnnotatedOntology:
    with open(path, "r", encoding="utf-8") as fh:
        return _parsed(parse_ontology, fh.read(), path)


def _load_query(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parsed(parse_query, fh.read(), path)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    import json  # only for --json: a plain-text command does without its import

    _emit(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_normalize(args) -> int:
    ontology = normalize(_load_ontology(args.input))
    lines = sorted(map(render_annotated, ontology.axioms))
    if args.json:
        _emit_json(args, {"axioms": lines})
    else:
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_ENTAILED


def _cmd_saturate(args) -> int:
    ontology = normalize(_load_ontology(args.input))
    sat = saturate(ontology, k=args.k, limits=_limits(), track_derivations=args.json)
    if args.json:
        _emit_json(args, sat.dump_json_obj())
    else:
        lines = sat.dump_lines()
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_ENTAILED


# --kind -> (accepted axiom types, how the diagnostic names them)
_KINDS = {
    "assertion": ((CA, RA), "a 'ca' or 'ra' axiom"),
    "gci": ((GCI,), "a 'gci' axiom"),
    "ri": ((RI,), "an 'ri' axiom"),
    "rr": ((RR,), "an 'rr' axiom"),
}


def _entail_target(kind: str, text: str):
    if kind == "iq":
        return _parsed(parse_iq_target, text, "--axiom")
    axiom = _parsed(parse_axiom, text, "--axiom")
    types, expected = _KINDS[kind]
    if not isinstance(axiom, types):
        raise ValueError(f"--kind {kind} expects {expected}")
    return axiom


def _cmd_entail(args) -> int:
    ontology = _load_ontology(args.input)
    mon = _parsed(parse_monomial, args.prov, "--prov")
    limits = _limits()
    entailed = entails(ontology, _entail_target(args.kind, args.axiom), mon, limits)
    if args.json:
        _emit_json(
            args,
            {"kind": args.kind, "axiom": args.axiom, "prov": str(mon), "entailed": entailed},
        )
    else:
        _emit(args, ("entailed" if entailed else "not entailed") + "\n")
    return EXIT_ENTAILED if entailed else EXIT_NOT_ENTAILED


def _cmd_relevant(args) -> int:
    ontology = _load_ontology(args.input)
    text = args.axiom.strip()
    target = _parsed(parse_iq_target if text.startswith("iq") else parse_axiom, text, "--axiom")
    merged = relevant_monomial(ontology, target, _limits())
    names = list(merged.names) if merged is not None else []
    if args.json:
        # the merged annotation is reported for atomic assertions only
        annotation = str(merged) if merged is not None and isinstance(target, (CA, RA)) else None
        _emit_json(args, {"axiom": text, "relevant": names, "merged_annotation": annotation})
    else:
        _emit(args, "\n".join(names) + ("\n" if names else ""))
    return EXIT_ENTAILED


def _cmd_query(args) -> int:
    ontology = _load_ontology(args.input)
    query = _load_query(args.query)
    prov = _parsed(parse_polynomial, args.prov, "--prov")
    answer = answer_query(ontology, query, prov, _limits())
    if args.json:
        _emit_json(
            args,
            {
                "query": str(query),
                "prov": str(prov),
                "entailed": answer.entailed,
                "matches": answer.matches,
                "query_provenance": str(answer.provenance),
            },
        )
    else:
        _emit(args, ("entailed" if answer.entailed else "not entailed") + "\n")
    return EXIT_ENTAILED if answer.entailed else EXIT_NOT_ENTAILED


def _cmd_model(args) -> int:
    ontology = _load_ontology(args.input)
    interp = build_canonical_model(ontology, _limits())
    _emit_json(args, interp.to_json_obj())
    return EXIT_ENTAILED


def _cmd_rewrite(args) -> int:
    query = _load_query(args.query)
    conditions = compute_rewriting(query)
    if args.json:
        _emit_json(
            args,
            {
                "atoms": [str(a) for a in query.atoms],
                "classes": [sorted(str(t) for t in cls) for cls in conditions.classes],
                "cyc": sorted(str(v) for v in conditions.cyc),
                "forks": [
                    {
                        "pre": [str(t) for t in fork.pre],
                        "class": sorted(str(t) for t in fork.cls),
                        "representative": str(fork.representative),
                    }
                    for fork in conditions.forks
                ],
            },
        )
    else:
        _emit(args, render_rewriting(query, conditions))
    return EXIT_ENTAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elprov",
        description="Reasoner for ELHr ontologies annotated with semiring provenance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", required=True, help="ontology file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("-o", "--output", help="write output to a file")

    p = sub.add_parser("normalize", help="print the normal form of an ontology")
    common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("saturate", help="print the saturated axiom set")
    common(p)
    p.add_argument("--k", type=int, default=None, help="bound derived monomials to k variables")
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("entail", help="decide entailment of an annotated axiom")
    common(p)
    p.add_argument("--kind", required=True, choices=("assertion", "gci", "ri", "rr", "iq"))
    p.add_argument("--axiom", required=True, help="axiom in the ontology grammar, without '@'")
    p.add_argument("--prov", required=True, help="monomial, e.g. 'v1*v2' or '1'")
    p.set_defaults(func=_cmd_entail)

    p = sub.add_parser("relevant", help="relevant provenance variables of a consequence")
    common(p)
    p.add_argument("--axiom", required=True, help="target axiom (ca/ra/gci/ri/rr/iq form)")
    p.set_defaults(func=_cmd_relevant)

    p = sub.add_parser("query", help="decide entailment of an annotated Boolean query")
    common(p)
    p.add_argument("-q", "--query", required=True, help="query file")
    p.add_argument("--prov", required=True, help="polynomial, e.g. 'v1*v2 + 2 v1*v3' or '0'")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("model", help="dump the canonical model as JSON")
    common(p)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("rewrite", help="print the rewritten query with side conditions")
    p.add_argument("-q", "--query", required=True, help="query file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("-o", "--output", help="write output to a file")
    p.set_defaults(func=_cmd_rewrite)

    return parser


# built once: parsing leaves the parser as it was
_PARSER = _build_parser()


def _format_warning(message, *_) -> str:
    # a diagnostic line, without the library's source path and line
    return f"warning: {message}\n"


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_ENTAILED
    collecting = gc.isenabled()  # see the module docstring
    if collecting:
        gc.collect(1)
        gc.disable()
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"{exc.source}:{exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except (QueryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = format_warning
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
