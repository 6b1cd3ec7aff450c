import json
import os
import random
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from hypothesis import assume, event, given, settings, strategies as st

from elprov.canonical import answer_query, build_canonical_model, compute_rewriting
from elprov.cli import main
from elprov.completion import UnknownNameWarning, entails, saturate
from elprov.interpretation import AuxElement, UnknownIndividualError, parse_query
from elprov.ontology import (
    CA,
    GCI,
    MAX_CONCEPT_DEPTH,
    RA,
    AnnotatedAxiom,
    Atomic,
    Exists,
    normalize,
    parse_ontology,
    render_annotated,
    render_axiom,
)
from elprov.provenance import Monomial, Polynomial, Variable
from elprov.relevance import relevant_monomial

from generators import (
    CONCEPTS,
    INDS,
    ROLES,
    TARGET_KINDS,
    ontology_lines,
    random_general_ontology,
    random_normalized_ontology,
    random_query,
    random_target,
    render_ontology,
)

GOLDEN = Path(__file__).parent / "golden"

MAYOR = """
ra mayor(Venice, Orsoni) @ v1
ra predecessor(Brugnaro, Orsoni) @ v2
gci some(predecessor, Mayor) <= Mayor @ v3
rr ran(mayor) <= Mayor @ v4
"""

CHAIN = """
gci A <= B1 @ v1
gci A <= B2 @ v2
gci and(B1, B2) <= C @ v3
"""

LOOP = """
ra R(a, a) @ u1
ca A(a) @ u2
gci A <= some(R) @ v1
rr ran(R) <= A @ v2
"""

LOOP_QUERY = "R(?x, ?x, ?t) & R(?x, ?y, ?t2) & R(?z, ?y, ?t3)\n"


@pytest.fixture
def mayor_file(tmp_path):
    path = tmp_path / "mayor.elp"
    path.write_text(MAYOR)
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.elp"
    path.write_text(LOOP)
    return str(path)


@pytest.fixture
def loop_query_file(tmp_path):
    path = tmp_path / "q.cq"
    path.write_text(LOOP_QUERY)
    return str(path)


def schema(name):
    ref = resources.files("elprov") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def python_fresh(args, cwd=GOLDEN, seed="0") -> subprocess.CompletedProcess:
    """A new interpreter on this checkout's ``src`` with the given string hash seed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


def run_fresh(argv, cwd=GOLDEN, seed="0") -> subprocess.CompletedProcess:
    """``elprov`` in a new interpreter with the given string hash seed."""
    return python_fresh(["-m", "elprov.cli", *argv], cwd, seed)


# one interpreter runs every argv through ``main``, printing [code, stdout] a line
_MAIN_LOOP = (
    "import io, json, sys\n"
    "from contextlib import redirect_stdout\n"
    "from elprov.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out = io.StringIO()\n"
    "    with redirect_stdout(out):\n"
    "        code = main(argv)\n"
    "    print(json.dumps([code, out.getvalue()]))\n"
)


def outputs_under_hash_seeds(argvs, cwd) -> set[bytes]:
    """The distinct stdouts of ``_MAIN_LOOP`` over ``argvs`` under hash seeds 0, 1 and 2."""
    outputs = set()
    for seed in ("0", "1", "2"):
        done = python_fresh(["-c", _MAIN_LOOP, json.dumps(argvs)], cwd=cwd, seed=seed)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    return outputs


def run_json(capsys, argv, schema_name):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    obj = json.loads(out)
    jsonschema.validate(obj, schema(schema_name))
    return code, obj


# --kind -> the target kinds of tests/generators.py it covers
_CLI_KINDS = {"assertion": ("ca", "ra"), "gci": ("gci",), "ri": ("ri",), "rr": ("rr",), "iq": ("iq",)}


class TestEntail:
    def test_assertion_exit_zero(self, mayor_file):
        code = main(
            [
                "entail",
                "--kind",
                "assertion",
                "-i",
                mayor_file,
                "--axiom",
                "ca Mayor(Brugnaro)",
                "--prov",
                "v1*v2*v3*v4",
            ]
        )
        assert code == 0

    def test_assertion_not_entailed_exit_one(self, mayor_file):
        code = main(
            [
                "entail",
                "--kind",
                "assertion",
                "-i",
                mayor_file,
                "--axiom",
                "ca Mayor(Brugnaro)",
                "--prov",
                "v1*v3*v4",
            ]
        )
        assert code == 1

    def test_gci(self, tmp_path, capsys):
        path = tmp_path / "chain.elp"
        path.write_text(CHAIN)
        code, obj = run_json(
            capsys,
            ["entail", "--kind", "gci", "-i", str(path), "--axiom", "gci A <= C", "--prov", "v1*v2*v3"],
            "entail",
        )
        assert code == 0 and obj["entailed"] is True

    def test_iq(self, mayor_file, capsys):
        code, obj = run_json(
            capsys,
            [
                "entail",
                "--kind",
                "iq",
                "-i",
                mayor_file,
                "--axiom",
                "iq some(predecessor, Mayor)(Brugnaro)",
                "--prov",
                "v1*v2*v4",
            ],
            "entail",
        )
        assert code == 0 and obj["entailed"] is True

    def test_ri_and_rr(self, tmp_path):
        path = tmp_path / "roles.elp"
        path.write_text("ri R <= S @ v1\nrr ran(S) <= A @ v2\n")
        assert main(["entail", "--kind", "ri", "-i", str(path), "--axiom", "ri R <= S", "--prov", "v1"]) == 0
        assert main(["entail", "--kind", "rr", "-i", str(path), "--axiom", "rr ran(R) <= A", "--prov", "v1*v2"]) == 0

    @pytest.mark.parametrize(
        "text, kind, axiom, prov",
        [
            ("rr ran(R) <= A @ 1\nra R(a, b) @ v\n", "rr", "rr ran(R) <= A", "__var0"),
            ("gci A <= B @ v\n", "gci", "gci A <= B", "v*__q0_A___a0"),
        ],
    )
    def test_probe_marker_is_not_entailed(self, tmp_path, capsys, text, kind, axiom, prov):
        path = tmp_path / "probe.elp"
        path.write_text(text)
        argv = ["entail", "-i", str(path), "--kind", kind, "--axiom", axiom, "--prov", prov]
        assert main(argv) == 1
        assert capsys.readouterr().out == "not entailed\n"

    def test_unknown_names_are_warned_once_each(self, mayor_file):
        argv = ["entail", "-i", mayor_file, "--kind", "assertion", "--axiom", "ra S(a, a)", "--prov", "1"]
        with pytest.warns(UnknownNameWarning) as caught:
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == [
            "queried assertion mentions names unknown to the ontology: S, a"
        ]

    def test_unknown_names_warning_is_one_line(self):
        # no library path, line number or source line, whatever the install
        argv = ["entail", "-i", "mayor.elp", "--kind", "assertion", "--axiom", "ra S(a, a)", "--prov", "1"]
        done = run_fresh(argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            1,
            b"not entailed\n",
            b"warning: queried assertion mentions names unknown to the ontology: S, a\n",
        )

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(sorted(_CLI_KINDS)), st.booleans())
    def test_exit_code_agrees_with_the_library(self, rng, kind, general):
        o = random_general_ontology(rng) if general else random_normalized_ontology(rng)
        target = random_target(rng, o, rng.choice(_CLI_KINDS[kind]))
        assume(target is not None)
        # the target's relevant variables make entailed monomials likely
        relevant = relevant_monomial(o, target)
        if relevant is not None and rng.random() < 0.6:
            pool = list(relevant.vars)
        else:
            pool = [*o.variables, Variable("foreign")]
        mon = Monomial(tuple(rng.sample(pool, rng.randint(0, min(3, len(pool))))))
        if kind == "iq":
            concept, ind = target
            text = f"iq {concept}({ind})"
        else:
            text = render_axiom(target)
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "o.elp", Path(tmp) / "out.txt"
            path.write_text(render_ontology(o))
            argv = ["entail", "-i", str(path), "--kind", kind, "--axiom", text, "--prov", str(mon)]
            code = main([*argv, "-o", str(out)])
            entailed = entails(o, target, mon)
            event(f"{kind}: {'entailed' if entailed else 'not entailed'}")
            assert (code, out.read_text()) == (
                (0, "entailed\n") if entailed else (1, "not entailed\n")
            ), (render_ontology(o), argv)


class TestQuery:
    def test_not_entailed(self, loop_file, loop_query_file):
        code = main(["query", "-i", loop_file, "-q", loop_query_file, "--prov", "u2*v1*v2"])
        assert code == 1

    def test_entailed_json(self, loop_file, loop_query_file, capsys):
        code, obj = run_json(
            capsys,
            ["query", "-i", loop_file, "-q", loop_query_file, "--prov", "u1"],
            "query",
        )
        assert code == 0
        assert obj["entailed"] is True and obj["matches"] >= 1

    def test_query_size_has_no_recursion_limit(self, tmp_path, capsys):
        # one join step per atom, well past the interpreter's recursion limit
        kb = tmp_path / "a.elp"
        kb.write_text("ca A(a) @ v1\n")
        query = tmp_path / "long.cq"
        n = sys.getrecursionlimit() + 500
        query.write_text(" & ".join(f"A(?x, ?t{i})" for i in range(n)) + "\n")
        code, obj = run_json(
            capsys, ["query", "-i", str(kb), "-q", str(query), "--prov", "v1"], "query"
        )
        assert code == 0
        assert obj["matches"] == 1 and obj["query_provenance"] == "v1"

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_json_agrees_with_the_library(self, rng):
        o = random_normalized_ontology(rng, 10)
        q = random_query(rng, CONCEPTS, ROLES, INDS, max_atoms=4)
        try:
            found = answer_query(o, q, Polynomial()).provenance.terms()
        except UnknownIndividualError:
            found = ()
        # a term of the query provenance makes an entailed answer likely
        pool = [*(m for m, _ in found), *(Monomial((v,)) for v in o.variables), Monomial()]
        pool.append(Monomial((Variable("foreign"),)))
        prov = Polynomial((m, rng.randint(1, 2)) for m in rng.sample(pool, rng.randint(0, 2)))
        try:
            answer = answer_query(o, q, prov)
            expected = (
                0 if answer.entailed else 1,
                [answer.entailed, answer.matches, str(answer.provenance)],
            )
        except UnknownIndividualError:
            expected = (2, None)
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, query, out = Path(tmp) / "o.elp", Path(tmp) / "q.cq", Path(tmp) / "out.json"
            path.write_text(render_ontology(o))
            query.write_text(f"{q}\n")
            argv = ["query", "-i", str(path), "-q", str(query), "--prov", str(prov), "--json"]
            code = main([*argv, "-o", str(out)])
            obj = json.loads(out.read_text()) if code != 2 else None
        printed = obj and [obj["entailed"], obj["matches"], obj["query_provenance"]]
        event(f"exit {code}")
        assert (code, printed) == expected, (render_ontology(o), str(q), str(prov))


class TestOtherCommands:
    def test_normalize_json(self, capsys, tmp_path):
        path = tmp_path / "o.elp"
        path.write_text("gci some(R, and(B, C)) <= D @ v\n")
        code, obj = run_json(capsys, ["normalize", "-i", str(path)], "normalize")
        assert code == 0
        assert any("__nf0" in line for line in obj["axioms"])

    def test_saturate_json(self, mayor_file, capsys):
        code, obj = run_json(capsys, ["saturate", "-i", mayor_file], "saturate")
        assert code == 0
        axioms = {row["axiom"]: row["annotation"] for row in obj["axioms"]}
        assert axioms.get("ca Mayor(Brugnaro)") or any(
            row["axiom"] == "ca Mayor(Brugnaro)" for row in obj["axioms"]
        )

    def test_saturate_k_flag(self, mayor_file, capsys):
        code = main(["saturate", "-i", mayor_file, "--k", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ca Mayor(Brugnaro)" not in out

    def test_relevant(self, mayor_file, capsys):
        code, obj = run_json(
            capsys, ["relevant", "-i", mayor_file, "--axiom", "ca Mayor(Brugnaro)"], "relevant"
        )
        assert code == 0
        assert obj["relevant"] == ["v1", "v2", "v3", "v4"]
        assert obj["merged_annotation"] == "v1*v2*v3*v4"

    def test_relevant_gci(self, tmp_path, capsys):
        path = tmp_path / "o.elp"
        path.write_text("gci A <= B @ v1\ngci B <= C @ v2\ngci C <= B @ v3\n")
        code, obj = run_json(
            capsys, ["relevant", "-i", str(path), "--axiom", "gci A <= B"], "relevant"
        )
        assert code == 0 and obj["relevant"] == ["v1", "v2", "v3"]

    def test_relevant_gci_agrees_with_entailment(self, tmp_path, capsys):
        # and(A, B) <= E @ v1 is not entailed (a derivation through A alone
        # does not mention B's annotation), and no derivation carries B's
        # marker, so nothing is relevant
        path = tmp_path / "o.elp"
        path.write_text("gci A <= E @ v1\nca B(x) @ v2\n")
        axiom = "gci and(A, B) <= E"
        for prov in ("1", "v1", "v2", "v1*v2"):
            argv = ["entail", "--kind", "gci", "-i", str(path), "--axiom", axiom, "--prov", prov]
            assert main(argv) == 1
        capsys.readouterr()
        assert main(["relevant", "-i", str(path), "--axiom", axiom]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.xfail(
        strict=True,
        reason="the merge store unions all derivations of the probe target, so the "
        "union holds both lhs markers although no one derivation does",
    )
    def test_relevant_gci_with_split_derivations_agrees_with_entailment(self, tmp_path, capsys):
        # E at the probe root is derived through A (A's marker, v1) and
        # through B (B's marker, v2), never through both
        path = tmp_path / "o.elp"
        path.write_text("gci A <= E @ v1\ngci B <= E @ v2\n")
        axiom = "gci and(A, B) <= E"
        for prov in ("1", "v1", "v2", "v1*v2"):
            argv = ["entail", "--kind", "gci", "-i", str(path), "--axiom", axiom, "--prov", prov]
            assert main(argv) == 1
        capsys.readouterr()
        assert main(["relevant", "-i", str(path), "--axiom", axiom]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.xfail(
        strict=True,
        reason="the merge store unions all derivations of the probe target, so v3, "
        "which reaches it without the probe edge's marker, is reported relevant",
    )
    def test_relevant_rr_agrees_with_entailment(self, tmp_path, capsys):
        # ran(R) <= A is entailed with v1 alone: Top <= A @ v3 gives the
        # probe target A without the edge, so no monomial with v3 is entailed
        path = tmp_path / "o.elp"
        path.write_text("rr ran(R) <= A @ v1\ngci Top <= A @ v3\nra R(c, d) @ v2\n")
        axiom = "rr ran(R) <= A"
        for prov, code in (("v1", 0), ("v3", 1), ("v1*v3", 1), ("1", 1)):
            argv = ["entail", "--kind", "rr", "-i", str(path), "--axiom", axiom, "--prov", prov]
            assert main(argv) == code
        capsys.readouterr()
        assert main(["relevant", "-i", str(path), "--axiom", axiom]) == 0
        assert capsys.readouterr().out == "v1\n"

    def test_model_json(self, loop_file, capsys):
        code, obj = run_json(capsys, ["model", "-i", loop_file], "model")
        assert code == 0
        assert obj["individuals"] == ["a"]
        assert len(obj["roles"]["R"]) == 6
        assert len(obj["concepts"]["A"]) == 5

    def test_rewrite(self, loop_query_file, capsys):
        code = main(["rewrite", "-q", loop_query_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "!aux(?x)" in out and "aux(?y) -> ?x = ?z" in out

    def test_rewrite_json(self, loop_query_file, capsys):
        code, obj = run_json(capsys, ["rewrite", "-q", loop_query_file], "rewrite")
        assert code == 0
        assert obj["cyc"] == ["?x", "?z"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_normalize_json_agrees_with_the_library(self, seed, nested):
        # an ontology built in-process, or generated lines with nested
        # left-hand sides; the file is the library's rendering of it
        rng = random.Random(seed)
        if nested:
            o = parse_ontology("\n".join(ontology_lines(rng, rng.randint(1, 60), 4)))
        else:
            o = random_general_ontology(rng, max_axioms=rng.randint(2, 30))
        expected = sorted(render_annotated(a) for a in normalize(o).axioms)
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "o.elp", Path(tmp) / "out.json"
            path.write_text(render_ontology(o))
            code = main(["normalize", "-i", str(path), "--json", "-o", str(out)])
            got = (code, json.loads(out.read_text()))
            assert got == (0, {"axioms": expected}), render_ontology(o)


    @staticmethod
    def rewriting_json(q) -> dict:
        """What ``rewrite --json`` prints for ``q``, from the library's rewriting."""
        rc = compute_rewriting(q)
        forks = [
            {
                "pre": [str(t) for t in fork.pre],
                "class": sorted(str(t) for t in fork.cls),
                "representative": str(fork.representative),
            }
            for fork in rc.forks
        ]
        return {
            "atoms": [str(a) for a in q.atoms],
            "classes": [sorted(str(t) for t in cls) for cls in rc.classes],
            "cyc": sorted(str(v) for v in rc.cyc),
            "forks": forks,
        }

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rewrite_json_agrees_with_the_library(self, rng):
        q = random_query(rng, CONCEPTS, ROLES, INDS, max_atoms=6)
        # the atoms over several lines, with comments and every line break
        separators = (" & ", "\n& ", " &\r\n", "\t&  # and\r", "\n\n&\t")
        text = "".join(f"{a}{rng.choice(separators)}" for a in q.atoms).rstrip("& \t\r\n")
        parsed = parse_query(text)
        assert parsed.atoms == q.atoms
        expected = self.rewriting_json(parsed)
        event(f"forks: {bool(expected['forks'])}, cyc: {bool(expected['cyc'])}")
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "q.cq", Path(tmp) / "out.json"
            path.write_bytes(text.encode())
            code = main(["rewrite", "-q", str(path), "--json", "-o", str(out)])
            assert (code, json.loads(out.read_text())) == (0, expected), text

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(TARGET_KINDS), st.booleans())
    def test_relevant_json_agrees_with_the_library(self, rng, kind, general):
        o = random_general_ontology(rng) if general else random_normalized_ontology(rng)
        target = random_target(rng, o, kind)
        assume(target is not None)
        text = f"iq {target[0]}({target[1]})" if kind == "iq" else render_axiom(target)
        merged = relevant_monomial(o, target)
        expected = {
            "axiom": text,
            "relevant": [v.name for v in merged.vars] if merged is not None else [],
            # the merged annotation is reported for atomic assertions only
            "merged_annotation": (
                str(merged) if merged is not None and isinstance(target, (CA, RA)) else None
            ),
        }
        event(f"{kind}: {'relevant' if expected['relevant'] else 'none'}")
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "o.elp", Path(tmp) / "out.json"
            path.write_text(render_ontology(o))
            code = main(["relevant", "-i", str(path), "--axiom", text, "--json", "-o", str(out)])
            got = (code, json.loads(out.read_text()))
            assert got == (0, expected), render_ontology(o)


    # generated ontologies have Top on left-hand sides and some(R) right-hand sides
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from([None, 0, 1, 2, 3]))
    def test_saturate_json_agrees_with_the_library(self, rng, general, k):
        o = random_general_ontology(rng) if general else random_normalized_ontology(rng)
        expected = saturate(normalize(o), k=k, track_derivations=True).dump_json_obj()
        k_flag = [] if k is None else ["--k", str(k)]
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "o.elp", Path(tmp) / "out.json"
            path.write_text(render_ontology(o))
            code = main(["saturate", "-i", str(path), *k_flag, "--json", "-o", str(out)])
            assert (code, json.loads(out.read_text())) == (0, expected), render_ontology(o)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.integers(0, 3))
    def test_saturate_k_agrees_with_the_library(self, rng, general, k):
        o = random_general_ontology(rng) if general else random_normalized_ontology(rng)
        expected = "".join(f"{line}\n" for line in saturate(normalize(o), k=k).dump_lines())
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "o.elp", Path(tmp) / "out.txt"
            path.write_text(render_ontology(o))
            code = main(["saturate", "-i", str(path), "--k", str(k), "-o", str(out)])
            assert (code, out.read_text()) == (0, expected), render_ontology(o)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_model_agrees_with_the_library(self, rng, general):
        if general:
            o = random_general_ontology(rng, 12)
        else:
            o = random_normalized_ontology(rng, 12, min_axioms=6)
        model = build_canonical_model(o)
        event(f"anonymous elements: {any(isinstance(e, AuxElement) for e in model.domain)}")
        with tempfile.TemporaryDirectory() as tmp:  # tmp_path is per test, not per example
            path, out = Path(tmp) / "o.elp", Path(tmp) / "out.json"
            path.write_text(render_ontology(o))
            code = main(["model", "-i", str(path), "-o", str(out)])
            got = (code, json.loads(out.read_text()))
            assert got == (0, model.to_json_obj()), render_ontology(o)


class TestErrorPaths:
    def test_parse_error_position_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.elp"
        path.write_text("ca A(a) @ v\nri R <= @ v\n")
        code = main(["saturate", "-i", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:2:" in err

    @pytest.mark.parametrize(
        "text, err",
        [
            # several clashes: the first in input order, at every hash seed
            ("ca A(a) @ a\nca B(b) @ b\nca C(c) @ c\nca D(d) @ d\n",
             "1:1: name 'a' used both as individual and as provenance variable"),
            ("ca A(x) @ v\ngci some(R, A) <= R @ v\n",
             "2:1: name 'R' used both as role and as concept"),
            ("ca A(x) @ b\nca B(b) @ 1\n",
             "2:1: name 'b' used both as individual and as provenance variable"),
        ],
        ids=["variables", "role-concept", "variable-first"],
    )
    def test_namespace_clash_at_its_line(self, tmp_path, text, err):
        (tmp_path / "o.elp").write_text(text)
        for seed in ("0", "1", "3"):
            done = run_fresh(["normalize", "-i", "o.elp"], cwd=tmp_path, seed=seed)
            assert (done.returncode, done.stderr.decode()) == (2, f"o.elp:{err}\n")

    @pytest.mark.parametrize(
        "text, err",
        [
            # a form feed ends no line, so 'bad line' is line 3
            ("# section one\f\nca A(b) @ v\nbad line\n",
             "3:1: expected one of gci/ri/rr/ca/ra, got 'bad'"),
            # a line separator ends no comment
            ("# note \u2028 more\nbad line\n", "2:1: expected one of gci/ri/rr/ca/ra, got 'bad'"),
            # \r\n and \r do end lines
            ("ca A(b) @ v\r\nca B(b) @ v\rbad line\n",
             "3:1: expected one of gci/ri/rr/ca/ra, got 'bad'"),
            # a blank other than space or tab is named at its own column
            ("ca A\u00a0(b) @ v\n", "1:5: unexpected character '\\xa0'"),
            ("ca A(b) @\u2003v\n", "1:10: unexpected character '\\u2003'"),
            # and so at the end of a line, where only space and tab may follow
            ("ca A(x) @ v1 \t\x0c\n", "1:15: unexpected character '\\x0c'"),
            # a syntax error on an earlier line comes first
            ("bad line\nca A(b) @ v\u00a0\n", "1:1: expected one of gci/ri/rr/ca/ra, got 'bad'"),
        ],
        ids=["form-feed", "line-separator", "crlf-and-cr", "no-break-space", "em-space",
             "trailing-form-feed", "syntax-error-before-a-stray"],
    )
    def test_line_and_column_of_a_parse_error(self, tmp_path, capsys, text, err):
        path = tmp_path / "o.elp"
        path.write_bytes(text.encode())
        assert main(["normalize", "-i", str(path)]) == 2
        assert capsys.readouterr() == ("", f"{path}:{err}\n")

    @pytest.mark.parametrize(
        "text, err",
        [
            ("C(?x,\u00a0?t0) &\fD(?x, ?t1)\n", "1:6: unexpected character '\\xa0'"),
            ("C(?x, ?t0) &\fD(?x, ?t1)\n", "1:13: unexpected character '\\x0c'"),
            ("C(?x, ?t0)\u2003\n", "1:11: unexpected character '\\u2003'"),
            # space, tab and the line breaks \r\n, \r and \n are blanks
            ("C(?x,\t?t0)\r\n&  D(?x,\r?t1)\n", None),
        ],
        ids=["no-break-space", "form-feed", "trailing-em-space", "space-tab-line-breaks"],
    )
    @pytest.mark.parametrize("command", ["rewrite", "query"])
    def test_query_blanks_are_space_tab_and_line_break(self, tmp_path, capsys, command, text, err):
        path = tmp_path / "q.cq"
        path.write_bytes(text.encode())
        argv = [command, "-q", str(path), "--json"]
        if command == "query":
            argv += ["-i", str(GOLDEN / "mayor.elp"), "--prov", "v1"]
        code, captured = main(argv), capsys.readouterr()
        if err is None:  # read as with single spaces
            path.write_text("C(?x, ?t0) & D(?x, ?t1)\n")
            assert (code, captured) == (main(argv), capsys.readouterr())
        else:
            assert (code, captured.out, captured.err) == (2, "", f"{path}:{err}\n")

    @pytest.mark.parametrize(
        "command, prov, err",
        [
            # a blank other than space or tab is named at its own column
            ("entail", "v1\u00a0*\x0cv4", "1:3: unexpected character '\\xa0'"),
            ("query", "v1 +\u2003v2", "1:5: unexpected character '\\u2003'"),
            # the ends are stripped, as for --axiom
            ("entail", " v1 *\tv4 +", "1:9: trailing input after monomial"),
            ("query", "0 v1", "1:1: zero coefficient is not allowed; use '0' for the zero polynomial"),
        ],
        ids=["entail-no-break-space", "query-em-space", "entail-trailing", "query-zero"],
    )
    def test_a_prov_error_names_the_option(self, tmp_path, capsys, command, prov, err):
        query = tmp_path / "q.cq"
        query.write_text("Mayor(?x, ?t)\n")
        argv = [command, "-i", str(GOLDEN / "mayor.elp"), "--prov", prov]
        if command == "entail":
            argv += ["--kind", "assertion", "--axiom", "ca Mayor(Orsoni)"]
        else:
            argv += ["-q", str(query)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"--prov:{err}\n")

    @pytest.mark.parametrize(
        "text, err",
        [
            ("D(?x ?t1)\n", "1:6: expected ',' or ')', got '?t1'"),
            ("C(?x, ?t0) & # one\n\n  D(?x ?t1)\n", "3:8: expected ',' or ')', got '?t1'"),
            ("C(?x, ?t0)\r\nD(?x, ?t1)\n", "2:1: expected '&', got 'D'"),
            ("C(?x, ?t0, ?t1, ?t2)\n", "1:1: atoms take 2 or 3 arguments, got 4"),
        ],
        ids=["missing-comma", "third-line", "missing-and", "arity"],
    )
    @pytest.mark.parametrize("command", ["rewrite", "query"])
    def test_a_query_syntax_error_names_file_line_and_column(
        self, tmp_path, capsys, command, text, err
    ):
        path = tmp_path / "q.cq"
        path.write_bytes(text.encode())
        argv = [command, "-q", str(path)]
        if command == "query":
            argv += ["-i", str(GOLDEN / "mayor.elp"), "--prov", "v1"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"{path}:{err}\n")

    def test_a_commented_out_query_atom_stays_out(self, tmp_path, capsys):
        path = tmp_path / "q.cq"
        path.write_bytes("C(?x, ?t0) # was: \u2028& D(?x, ?t1)\n".encode())
        code, obj = run_json(capsys, ["rewrite", "-q", str(path)], "rewrite")
        assert (code, obj["atoms"]) == (0, ["C(?x, ?t0)"])

    @pytest.mark.parametrize(
        "kind, axiom, err",
        [
            ("iq", "iq R(a)", "name 'R' used both as role and as concept"),
            ("gci", "gci A <= R", "name 'R' used both as role and as concept"),
            ("rr", "rr ran(A) <= A", "name 'A' used both as concept and as role"),
        ],
    )
    def test_a_clash_in_the_probe_is_a_usage_error(self, tmp_path, capsys, kind, axiom, err):
        path = tmp_path / "o.elp"
        path.write_text("ra R(a, b) @ v\nca A(a) @ w\n")
        argv = ["entail", "-i", str(path), "--kind", kind, "--axiom", axiom, "--prov", "v"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_usage_error(self, capsys):
        assert main(["entail", "--kind", "nope", "-i", "x", "--axiom", "y", "--prov", "1"]) == 2

    def test_resource_cap_exit_three(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "blowup.elp"
        lines = []
        for i in range(1, 4):
            lines.append(f"gci A <= A{i} @ v{i}")
            lines.append(f"gci A{i} <= B @ u{i}")
        lines.append("gci B <= A @ u")
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("ELPROV_MAX_AXIOMS", "10")
        assert main(["saturate", "-i", str(path)]) == 3

    def test_entail_cap_counts_only_the_axioms_dividing_the_monomial(
        self, tmp_path, capsys, monkeypatch
    ):
        # the chain annotated with v derives 820 inclusions within k = 2;
        # none of them can take part in a derivation of x1*x2, and the cap
        # counts what the entailment's own run derives: the axioms whose
        # annotation divides the monomial and that can reach the question
        lines = ["ca A(a) @ x1", "gci A <= B @ x2"]
        lines += [f"gci C{i} <= C{i + 1} @ v" for i in range(40)]
        path = tmp_path / "planted.elp"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("ELPROV_MAX_AXIOMS", "200")
        assert main(["saturate", "-i", str(path), "--k", "2"]) == 3
        capsys.readouterr()
        argv = ["entail", "-i", str(path), "--kind", "assertion", "--axiom"]
        assert main([*argv, "ca B(a)", "--prov", "x1*x2"]) == 0
        assert capsys.readouterr() == ("entailed\n", "")
        # the chain divides x1*v but cannot reach B
        assert main([*argv, "ca B(a)", "--prov", "x1*v"]) == 1
        assert capsys.readouterr() == ("not entailed\n", "")
        # the whole chain reaches C40
        assert main([*argv, "ca C40(a)", "--prov", "x1*v"]) == 3
        assert capsys.readouterr().err == "error: saturation exceeded the cap of 200 derived axioms\n"

    @pytest.mark.parametrize("cap", ["-1", "0", "abc"])
    def test_invalid_axiom_cap_is_usage_error(self, mayor_file, capsys, monkeypatch, cap):
        monkeypatch.setenv("ELPROV_MAX_AXIOMS", cap)
        assert main(["saturate", "-i", mayor_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ELPROV_MAX_AXIOMS must be a positive integer, got {cap!r}" in captured.err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["entail", "--kind", "gci", "--axiom", "gci A <= ", "--prov", "v1"],
                "--axiom:1:9: expected a concept",
            ),
            (
                ["relevant", "--axiom", "ca Mayor("],
                "--axiom:1:10: expected an individual name, got 'end of line'",
            ),
            (
                ["entail", "--kind", "ri", "--axiom", "ri R S", "--prov", "1"],
                "--axiom:1:6: expected '<=', got 'S'\n",
            ),
        ],
    )
    def test_axiom_parse_error_names_the_argument(self, capsys, argv, err):
        assert main([argv[0], "-i", str(GOLDEN / "mayor.elp"), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)

    def test_negative_k_is_usage_error(self, mayor_file, capsys):
        assert main(["saturate", "-i", mayor_file, "--k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be a non-negative integer, got -1" in captured.err

    def test_missing_file(self, capsys):
        assert main(["saturate", "-i", "/nonexistent/x.elp"]) == 2

    @pytest.mark.parametrize("axiom", ["ca P3(pa)", "gci P0 <= P3"])
    def test_relevant_honours_axiom_cap(self, capsys, monkeypatch, axiom):
        argv = ["relevant", "-i", str(GOLDEN / "layered.elp"), "--axiom", axiom]
        monkeypatch.setenv("ELPROV_MAX_AXIOMS", "1")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeded the cap of 1 derived axioms" in captured.err
        for cap in ("-1", "0", "abc"):
            monkeypatch.setenv("ELPROV_MAX_AXIOMS", cap)
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"ELPROV_MAX_AXIOMS must be a positive integer, got {cap!r}" in captured.err

    @pytest.mark.parametrize("text", ["A(", "R(a,", "R(a, \t"])
    @pytest.mark.parametrize("command", ["rewrite", "query"])
    def test_truncated_query_atom_is_a_usage_error(self, tmp_path, capsys, command, text):
        # the error is just past the last token, its trailing blanks left
        # out, as at the end of an ontology line
        path = tmp_path / "truncated.cq"
        path.write_text(text + "\n")
        argv = [command, "-q", str(path)]
        if command == "query":
            argv += ["-i", str(GOLDEN / "mayor.elp"), "--prov", "v1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        col = len(text.rstrip()) + 1
        assert captured.err == f"{path}:1:{col}: expected a term, got 'end of line'\n"

    def test_a_query_may_end_with_one_ampersand(self, tmp_path, capsys):
        # one trailing '&' is accepted; a second one is an atom missing
        path = tmp_path / "trailing.cq"
        path.write_text("A(?x, ?t) &\n")
        assert main(["rewrite", "-q", str(path)]) == 0
        assert capsys.readouterr() == ("A(?x, ?t)\n", "")
        path.write_text("A(?x, ?t) & &\n")
        assert main(["rewrite", "-q", str(path)]) == 2
        assert capsys.readouterr() == ("", f"{path}:1:13: expected a predicate name, got '&'\n")

    def test_query_unknown_individual_checked_before_the_model(self, capsys, monkeypatch):
        # the cap would trip while building the model; the individual is
        # checked first, so this is a usage error, not a resource error
        monkeypatch.setenv("ELPROV_MAX_AXIOMS", "5")
        argv = ["query", "-i", str(GOLDEN / "mayor.elp"), "-q", str(GOLDEN / "mayor-nobody.cq")]
        assert main(argv + ["--prov", "v1"]) == 2
        assert "individual 'nobody' does not occur in the ontology" in capsys.readouterr().err

    @pytest.mark.parametrize("nest", ["and(A, {})", "some(R, {})"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, nest):
        concept = "B"
        for _ in range(3000):
            concept = nest.format(concept)
        path = tmp_path / "deep.elp"
        path.write_text(f"ca A(a) @ v\ngci {concept} <= C @ w\n")
        col = 5 + len(nest.split("{")[0]) * MAX_CONCEPT_DEPTH
        for command in ("normalize", "saturate"):
            assert main([command, "-i", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"{path}:2:{col}: concept nesting deeper than")
        mayor = tmp_path / "mayor.elp"
        mayor.write_text(MAYOR)
        argv = ["entail", "-i", str(mayor), "--kind", "gci", "--prov", "v1"]
        assert main(argv + ["--axiom", f"gci {concept} <= C"]) == 2
        assert main(["relevant", "-i", str(mayor), "--axiom", f"iq {concept}(a)"]) == 2
        err = capsys.readouterr().err
        assert err.count("concept nesting deeper than") == 2

    def test_deepest_accepted_nesting_runs_end_to_end(self, tmp_path, capsys):
        concept = "B"
        for _ in range(MAX_CONCEPT_DEPTH):
            concept = f"some(R, {concept})"
        path = tmp_path / "deep.elp"
        path.write_text(f"ca B(a) @ u\ngci {concept} <= C @ w\n")
        assert main(["saturate", "-i", str(path), "--k", "1"]) == 0
        argv = ["entail", "-i", str(path), "--kind", "gci", "--axiom", f"gci {concept} <= C"]
        assert main(argv + ["--prov", "w"]) == 0
        assert main(["relevant", "-i", str(path), "--axiom", f"gci {concept} <= C"]) == 0
        assert capsys.readouterr().out.endswith("\nentailed\nw\n")

class TestDeterminism:
    def test_saturate_bytes_stable(self, mayor_file, capsys):
        main(["saturate", "-i", mayor_file, "--json"])
        first = capsys.readouterr().out
        main(["saturate", "-i", mayor_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_model_bytes_stable(self, loop_file, capsys):
        main(["model", "-i", loop_file])
        first = capsys.readouterr().out
        main(["model", "-i", loop_file])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "-i", "layered.elp"],
            ["query", "-i", "layered.elp", "-q", "layered-anonymous.cq", "--json",
             "--prov", "v10 + 3 v10*v11"],
            ["entail", "-i", "layered.elp", "--kind", "gci", "--axiom", "gci P0 <= P3",
             "--prov", "x4"],
            ["relevant", "-i", "layered.elp", "--json", "--axiom", "ca P3(pa)"],
            ["saturate", "-i", "layered.elp", "--json", "--k", "2"],
            ["normalize", "-i", "general.elp", "--json"],
            ["rewrite", "-q", "layered-anonymous.cq"],
        ],
        ids=["model", "query", "entail", "relevant", "saturate", "normalize", "rewrite"],
    )
    def test_bytes_do_not_depend_on_the_hash_seed(self, argv):
        # sets and dicts of names iterate in an order that varies with the
        # string hash seed (the model's worklist, the matcher's index
        # buckets, the saturation's stores); none of it may reach stdout
        outputs = set()
        for seed in ("0", "1", "2"):
            done = run_fresh(argv, seed=seed)
            assert done.returncode in (0, 1), done.stderr
            outputs.add((done.returncode, done.stdout))
        assert len(outputs) == 1 and outputs.pop()[1]

    def test_normalized_nested_ontologies_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the normalized signature is assembled from the input's and the
        # fresh names; no set order may reach it or the fresh-name numbering
        rng = random.Random(1409)
        for i in range(3):
            path = tmp_path / f"nested-{i}.elp"
            path.write_text("\n".join(ontology_lines(rng, 200, 4)) + "\n")
            outputs = set()
            for seed in ("0", "1", "2"):
                done = run_fresh(["normalize", "-i", str(path), "--json"], seed=seed)
                assert done.returncode == 0, done.stderr
                outputs.add(done.stdout)
            assert len(outputs) == 1 and b"__nf" in outputs.pop()

    def test_query_and_model_on_generated_ontologies_do_not_depend_on_the_hash_seed(
        self, tmp_path
    ):
        # the models have anonymous elements, whose hashes mix names and
        # monomials; one query has a cycle with a tail, the other a fork
        rng = random.Random(1503)
        (tmp_path / "cyclic.cq").write_text("R(?x, ?y, ?t0) & R(?y, ?x, ?t1) & S(?x, ?z, ?t2)\n")
        (tmp_path / "forked.cq").write_text("R(?x, ?z, ?t0) & S(?y, ?z, ?t1) & B(?z, ?t2)\n")
        argvs = []
        for i in range(3):
            o = random_normalized_ontology(rng, 16, min_axioms=12).extended(
                AnnotatedAxiom(
                    GCI(Atomic(rng.choice(CONCEPTS)), Exists(rng.choice(ROLES))),
                    Monomial((Variable("v5"),)),
                )
                for _ in range(2)
            )
            assert any(isinstance(e, AuxElement) for e in build_canonical_model(o).domain)
            path = tmp_path / f"generated-{i}.elp"
            path.write_text(render_ontology(o))
            argvs.append(["model", "-i", path.name])
            for q in ("cyclic.cq", "forked.cq"):
                argvs.append(["query", "-i", path.name, "-q", q, "--json", "--prov", "v1 + v2*v5"])
        outputs = outputs_under_hash_seeds(argvs, tmp_path)
        assert len(outputs) == 1
        runs = [json.loads(line) for line in outputs.pop().splitlines()]
        assert all(code in (0, 1) for code, _ in runs)
        assert any(json.loads(out).get("matches") for _, out in runs)

    def test_saturate_and_entail_on_generated_ontologies_do_not_depend_on_the_hash_seed(
        self, tmp_path
    ):
        # general ontologies, so normalization's fresh names take part, and
        # one entail target of every kind
        rng = random.Random(1601)
        argvs = []
        for i in range(4):
            o = random_general_ontology(rng, max_axioms=14)
            path = tmp_path / f"general-{i}.elp"
            path.write_text(render_ontology(o))
            argvs += [["saturate", "-i", path.name, "--json"],
                      ["saturate", "-i", path.name, "--json", "--k", "2"]]
            for kind in TARGET_KINDS:
                target = random_target(rng, o, kind)
                if target is None:
                    continue
                pool = [v.name for v in o.variables]
                prov = "*".join(rng.sample(pool, rng.randint(0, min(2, len(pool))))) or "1"
                cli_kind = next(k for k, kinds in _CLI_KINDS.items() if kind in kinds)
                text = f"iq {target[0]}({target[1]})" if kind == "iq" else render_axiom(target)
                argvs.append(["entail", "-i", path.name, "--json", "--kind", cli_kind,
                              "--axiom", text, "--prov", prov])
        outputs = outputs_under_hash_seeds(argvs, tmp_path)
        assert len(outputs) == 1
        runs = [json.loads(line) for line in outputs.pop().splitlines()]
        assert len(runs) == len(argvs) >= 25
        assert {code for code, _ in runs} == {0, 1}
        assert all(json.loads(out) for _, out in runs)

    def test_relevant_and_rewrite_on_generated_inputs_do_not_depend_on_the_hash_seed(
        self, tmp_path
    ):
        # general ontologies with a target of every kind, and queries with
        # cycles, forks and individuals
        rng = random.Random(1801)
        argvs = []
        for i in range(4):
            o = random_general_ontology(rng, max_axioms=14)
            path = tmp_path / f"general-{i}.elp"
            path.write_text(render_ontology(o))
            for kind in TARGET_KINDS:
                target = random_target(rng, o, kind)
                if target is not None:
                    text = f"iq {target[0]}({target[1]})" if kind == "iq" else render_axiom(target)
                    argvs.append(["relevant", "-i", path.name, "--json", "--axiom", text])
            for j in range(3):
                query = tmp_path / f"q-{i}-{j}.cq"
                query.write_text(f"{random_query(rng, CONCEPTS, ROLES, INDS, max_atoms=6)}\n")
                argvs += [["rewrite", "-q", query.name], ["rewrite", "-q", query.name, "--json"]]
        outputs = outputs_under_hash_seeds(argvs, tmp_path)
        assert len(outputs) == 1
        runs = [json.loads(line) for line in outputs.pop().splitlines()]
        assert len(runs) == len(argvs) >= 40 and {code for code, _ in runs} == {0}
        printed = [json.loads(out) for (_, out), argv in zip(runs, argvs) if "--json" in argv]
        assert any(obj.get("relevant") for obj in printed)
        assert any(obj.get("forks") for obj in printed) and any(obj.get("cyc") for obj in printed)

    def test_one_process_answers_like_fresh_ones(self, capsys, monkeypatch):
        # the parser is built once per process, so a usage error must leave
        # nothing behind for the calls after it
        monkeypatch.chdir(GOLDEN)
        assert main(["entail"]) == 2
        capsys.readouterr()
        for argv in (
            ["relevant", "-i", "layered.elp", "--json", "--axiom", "ca P3(pa)"],
            ["entail", "-i", "layered.elp", "--kind", "gci", "--axiom", "gci P0 <= P3",
             "--prov", "x4"],
        ):
            code = main(argv)
            fresh = run_fresh(argv)
            assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout.decode())

    def test_output_file(self, mayor_file, tmp_path):
        out = tmp_path / "out.txt"
        assert main(["normalize", "-i", mayor_file, "-o", str(out)]) == 0
        assert out.read_text().strip()
