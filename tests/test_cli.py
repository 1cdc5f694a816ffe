"""Command-line driver: runs, serialization round-trips, queries."""

import functools
import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import SWEEP
from ainfinity import cli, ff_linalg
from ainfinity.cli import (RunConfig, StructureDocument, default_truncation,
                           dump_structure, main, parse_element,
                           parse_structure, run, run_query, split_query)
from ainfinity.endo_dga import EndomorphismAlgebra
from ainfinity.errors import InvalidParameter, UnresolvableValue
from ainfinity.kadeishvili import HElement


@pytest.fixture(scope="module")
def golden_run():
    return run(RunConfig(p=2, q=4, max_arity=8, verify=True))


class TestRun:
    def test_golden_output_lines(self, golden_run):
        text = "\n".join(golden_run.lines)
        assert "m_4(x,x,x,x) = y" in text
        assert "complete-at-5" in text
        assert "verification: pass" in text
        assert golden_run.exit_code == 0

    def test_below_halting_window_stays_open(self):
        result = run(RunConfig(p=2, q=4, max_arity=3))
        assert result.exit_code == 0
        assert result.summary.halted_at is None
        assert all(len(k) <= 2 or v.is_zero()
                   for k, v in result.record.m_table.items())

    def test_default_truncation_rule(self):
        # two periods of margin over the largest degree in play (2 per slot)
        assert default_truncation(8) == 36
        assert default_truncation(18) == 76


class TestStructureFile:
    def test_round_trip(self, golden_run):
        text = dump_structure(golden_run.document)
        assert parse_structure(text) == golden_run.document

    def test_byte_reproducible(self):
        a = run(RunConfig(p=2, q=4, max_arity=8, verify=True))
        b = run(RunConfig(p=2, q=4, max_arity=8, verify=True))
        assert dump_structure(a.document) == dump_structure(b.document)

    def test_integers_only(self, golden_run):
        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, (list, tuple)):
                for v in node:
                    walk(v)
            else:
                assert node is None or isinstance(node, (bool, int, str))

        walk(golden_run.document)

    def test_sorted_by_arity_then_inputs(self, golden_run):
        entries = [(e["arity"], e["inputs"]) for e in golden_run.document["products"]]
        assert entries == sorted(entries)

    def test_header_fields(self, golden_run):
        header = golden_run.document["header"]
        assert header["p"] == 2 and header["q"] == 4
        assert header["period"] == 2
        assert header["halting"] == {"status": "complete", "arity": 5}
        assert header["mq_sign"] == 1

    def test_product_coords_are_the_coefficient(self, golden_run):
        doc, record = golden_run.document, golden_run.record
        monos = [(b["eps"], b["ypow"]) for b in doc["basis"]]
        for entry in doc["products"]:
            value = record.m_table[tuple(monos[i] for i in entry["inputs"])]
            assert value.coords == (value.coeff,)
            assert list(value.coords) == entry["coords"]

    def test_rejects_foreign_documents(self):
        with pytest.raises(InvalidParameter):
            parse_structure(json.dumps({"format": "something-else"}))


# sha256 of dump_structure(run(...).document) at max_arity 2q with --verify,
# recorded before the homology path went local (brute-force "auto": before
# its representatives above degree 2 were composed from the generators); a
# change that moves any byte of a structure file on the sweep shows here
GOLDEN_DIGESTS = {
    (2, 4, "reduced", "paper"): "afbbcdb7592cd31a1d2d762ff252d3af6c88ef71f4447643c63a7954a9907cba",
    (2, 8, "reduced", "paper"): "8f1cef6d2c610c34886639d2d701c964961a853f1da5ac74f55951129fe92932",
    (3, 3, "reduced", "paper"): "c159c5c121acf29f76d753f7a62e58313a3357418abb0080a5811844e33ec444",
    (3, 9, "reduced", "paper"): "92bb8b34d8d719ec1d7c8874b5096582cd1818540389eab8de265509ea7b51df",
    (5, 5, "reduced", "paper"): "a646e753faf02592d84290beb45f7a4d6eff45060dbd8e85d7406f7966baf7a4",
    (2, 4, "brute-force", "paper"): "390d65065e8aac224d2285096817fc78bfba3e69e667a6072b438deed7cab883",
    (2, 8, "brute-force", "paper"): "57a4a161b7362a2f0737652fa1e693a5403192479df73c40144489abe4ef0356",
    (3, 3, "brute-force", "paper"): "247bfca9c0c352d1a42a92ae63a46319790fb634a8e6f58fea77a197c5502a6f",
    (3, 9, "brute-force", "paper"): "983361620277e0dfb1e95c3bb3e76ee6c8cada20e24a37a63391ab36487a9eee",
    (5, 5, "brute-force", "paper"): "a7af813b0cdfe2a7d1941704677d35759d0f45d50cbc16ddd828e1a6ef14227d",
    (2, 4, "reduced", "auto"): "3a8efa2b0bc4dd8686b77e385f06d7e668680a56999fcf2d1b438aa78d63b501",
    (2, 8, "reduced", "auto"): "1a3f404ad8305e84c118fa5584993b7910410d73b89c8ca13bf156d2f072f7e9",
    (3, 3, "reduced", "auto"): "2ae67913d62d359f55bacb4aec8752931b325b1ff04ccc4b87a5cbd7b1fc1fc9",
    (3, 9, "reduced", "auto"): "9048060aed363d2094027a5ebec3af3f34e7311d4150e01cea874670a7452725",
    (5, 5, "reduced", "auto"): "24eebffd82f6e5fe73bbf247c88a4c7afd4bbd274d04a54a33749004dcf2d0ec",
    (2, 4, "brute-force", "auto"): "6f1038a18ea0376f4193a0892199719e17a115196b45c3de5e0b61ecdb114118",
    (2, 8, "brute-force", "auto"): "fc6739613f3ae098a79317d09146a4cb86d4402c75a3d1556150f4332f508c56",
    (3, 3, "brute-force", "auto"): "edeb879d228f0729af4540d1d4f206ee4ea6d8acffee6619772316fdc0a20458",
    (3, 9, "brute-force", "auto"): "44796de84ecb64f026c4289c341d2a3e7f699772569d224e7ae1854a00c91d83",
    (5, 5, "brute-force", "auto"): "d8e0453c27cf8f5c9eedc39fa92f8f4e782eb3a1ebb88404c1dc2982acc16cd1",
}


@functools.lru_cache(maxsize=None)
def sweep_run(p, q, mode, f1_mode):
    """`run` at max_arity 2q with --verify; one per sweep point and mode,
    shared by the tests below.  The document is built inside `run`, so
    values resolved later (brute mode memoizes on demand) never reach it."""
    return run(RunConfig(p=p, q=q, max_arity=2 * q, mode=mode,
                         f1_mode=f1_mode, verify=True))


def _json_text(doc) -> str:
    """The layout `dump_structure` promises, from json itself."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("p,q,mode,f1_mode", sorted(GOLDEN_DIGESTS))
def test_golden_structure_digest(p, q, mode, f1_mode):
    result = sweep_run(p, q, mode, f1_mode)
    assert result.exit_code == 0
    text = dump_structure(result.document)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[(p, q, mode, f1_mode)]
    assert text == _json_text(result.document)


def test_writer_is_json_on_a_large_brute_file():
    # (7,10) brute: a 1.7 MB file, mostly repeated all-zero components
    doc = run(RunConfig(p=7, q=10, max_arity=20, mode="brute-force")).document
    assert dump_structure(doc) == _json_text(doc)


def test_brute_file_rows_are_distinct_lists():
    # every unstored position gets a fresh zero row, so editing one node of a
    # document edits no other
    doc = sweep_run(3, 9, "brute-force", "paper").document
    rows = [row for entry in doc["maps"] for comp in entry["components"] for row in comp[0]]
    assert any(not any(row) for row in rows)
    assert len({id(row) for row in rows}) == len(rows)


_TRICKY_TEXT = ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "é", "\u2028", "日本",
                "\U0001f600", ""]
_json_ints = st.one_of(st.integers(), st.integers(min_value=2 ** 64),
                       st.integers(max_value=-1))
_json_text_values = st.one_of(st.text(), st.sampled_from(_TRICKY_TEXT))
_json_leaves = st.one_of(st.none(), st.booleans(), _json_ints, _json_text_values,
                         st.lists(_json_ints), st.lists(st.one_of(_json_ints, st.booleans())))
_json_trees = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(_json_text_values, children),
        st.dictionaries(_json_text_values, children).map(StructureDocument)),
    max_leaves=30)


class TestWriter:
    """`dump_structure` against its oracle, json's indent=1 layout."""

    @settings(max_examples=200, deadline=None)
    @given(_json_trees)
    def test_json_like_trees(self, doc):
        assert dump_structure(doc) == _json_text(doc)

    @pytest.mark.parametrize("doc", [
        [], {}, [[]], {"": {}}, (), [()], StructureDocument(),
        [1, True], [True, 1], [False, 0, -0], [[1, 1], [True, 1], [1, 1]],
        {"a": [0, 0], "b": {"c": [0, 0], "d": [[0, 0]]}},
        [2 ** 64, -(2 ** 70), 0], None, "x", 7, True,
        {"b": 1, "a": 2, "B": 3, "\u00e9": 4, '"': 5},
    ])
    def test_edge_cases(self, doc):
        assert dump_structure(doc) == _json_text(doc)

    @pytest.mark.parametrize("doc", [
        np.int64(3), [np.int64(3)], [1, np.int64(3)], {"a": {1, 2}}, {1, 2},
    ])
    def test_other_values_raise(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            dump_structure(doc)

    @pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, {"a": 1.5}])
    def test_what_json_would_convert_raises(self, doc):
        # json writes these keys as strings, and floats; a structure file
        # holds str keys and integers only
        with pytest.raises(TypeError):
            dump_structure(doc)


_SLOT_DEGREES = {"1": 0, "x": 1, "y": 2, "y*x": 3, "y^2": 4, "y^2*x": 5}
_POSITION_RE = re.compile(r"^\s*position (\d+)(?: \(mod \d+\))?: (.*)$")


def agreement_tuples(q):
    """Every tuple over the slots of arity <= 4 and degree <= 6, plus the
    pure-x tuples up to arity 2q+1 (past the halting arity)."""
    tuples = [t for n in range(1, 5)
              for t in itertools.product(_SLOT_DEGREES, repeat=n)
              if sum(_SLOT_DEGREES[s] for s in t) <= 6]
    return tuples + [("x",) * n for n in range(5, 2 * q + 2)]


def multi_term_tuples(q):
    """Product tuples with multi-term slots, around the nonzero m_q; in the
    last, the two y^2-terms of the expansion cancel mod every p."""
    return [("x + y*x",) + ("x",) * (q - 1), ("2*x + y", "x"),
            ("2*x + y",) + ("x",) * (q - 1),
            ("x + y*x", "x - y*x") + ("x",) * (q - 2)]


@pytest.mark.parametrize("p,q,mode,f1_mode", sorted(GOLDEN_DIGESTS))
def test_record_and_its_file_agree(p, q, mode, f1_mode):
    # the file reader and the record resolve through the same rules; this
    # pins their realisations (stored entries and degree shifts against
    # memo values, y-cocycle compositions and brute computations)
    result = sweep_run(p, q, mode, f1_mode)
    record, doc = result.record, result.document
    period = doc["header"]["period"]
    for names in agreement_tuples(q):
        expr = ", ".join(names)
        slots = [parse_element(name, p) for name in names]
        want = str(record.extend_linear(slots)[0])
        assert run_query("product: " + expr, doc) == [want], expr
        if len(names) < 2:
            continue
        key = tuple(next(iter(s.terms)) for s in slots)
        lines = run_query("map: " + expr, doc)
        value = record.resolve_map(key)
        if lines == ["0 (zero map)"]:
            assert value.is_zero(), expr
            continue
        assert re.match(r"^degree (\d+)", lines[0]).group(1) == str(value.degree), expr
        got = [(int(m.group(1)), json.loads(m.group(2)))
               for m in map(_POSITION_RE.match, lines[2:2 + period])]
        assert got == [(value.degree + i, value.component(value.degree + i).entries.tolist())
                       for i in range(period)], expr
    # multi-term slots: the record answers them whole, and term by term
    for names in multi_term_tuples(q):
        slots = [parse_element(name, p) for name in names]
        terms = {}
        for parts in itertools.product(*(s.terms.items() for s in slots)):
            value = record.extend_linear([HElement(p, dict([part])) for part in parts])[0]
            for mono, c in value.terms.items():
                terms[mono] = terms.get(mono, 0) + c
        expr = ", ".join(names)
        want = [str(HElement(p, terms))]
        assert run_query("product: " + expr, doc) == want, expr
        assert [str(record.extend_linear(slots)[0])] == want, expr


@pytest.mark.parametrize("mode", ["reduced", "brute-force"])
@pytest.mark.parametrize("f1_mode", ["paper", "auto"])
def test_record_answers_an_inhomogeneous_slot_as_the_file_does(mode, f1_mode):
    # the record once refused these slots, which the file answers
    result = sweep_run(2, 4, mode, f1_mode)
    names = ["x + y*x", "x", "x", "x"]
    m_value, f_value = result.record.extend_linear([parse_element(s, 2) for s in names])
    assert run_query("product: " + ", ".join(names), result.document) == ["y + y^2"]
    assert str(m_value) == "y + y^2"
    assert f_value.is_zero()


def _pulled_back(doc, p):
    """The document of the other section, x -> -x: a product's coords
    change by (-1)^(e_in + degree), with e_in the x-count of its inputs,
    and a map's components by (-1)^e_in.  The header's `mq_sign` is the
    coordinate of m_q(x, ..., x), in degree 2."""
    doc = json.loads(dump_structure(doc))
    header = doc["header"]
    if header["mq_sign"] is not None:
        header["mq_sign"] = (-1) ** header["q"] * header["mq_sign"] % p
    eps = {b["index"]: b["eps"] for b in doc["basis"]}
    for entry in doc["products"]:
        if (sum(eps[i] for i in entry["inputs"]) + entry["degree"]) % 2:
            entry["coords"] = [-c % p for c in entry["coords"]]
    for entry in doc["maps"]:
        if sum(eps[i] for i in entry["inputs"]) % 2:
            entry["components"] = (-np.array(entry["components"]) % p).tolist()
    return doc


@pytest.mark.parametrize("p,q,mode", sorted({key[:3] for key in GOLDEN_DIGESTS}))
def test_auto_section_is_paper_pulled_back(p, q, mode):
    # auto's degree-g representative is (-1)^g times paper's, so the auto
    # structure is the paper one pulled back along x -> -x
    paper = _pulled_back(sweep_run(p, q, mode, "paper").document, p)
    auto = json.loads(dump_structure(sweep_run(p, q, mode, "auto").document))
    assert auto["header"].pop("f1") == "auto" and paper["header"].pop("f1") == "paper"
    assert auto == paper


def _reduced_file(result) -> dict:
    doc = json.loads(dump_structure(result.document))
    assert doc.pop("format") == cli.FORMAT_NAME
    return doc


@pytest.mark.parametrize("section", ["paper", "auto"])
@pytest.mark.parametrize("p,q", SWEEP)
def test_reduced_file_is_the_closed_form(p, q, section):
    # the whole file, arities q..2q included, against the closed form
    doc = _reduced_file(sweep_run(p, q, "reduced", section))
    assert doc == oracle.expected_document(p, q, section, default_truncation(2 * q))


@pytest.mark.parametrize("section", ["paper", "auto"])
@pytest.mark.parametrize("p,q", [(3, 16), (3, 32), (3, 48), (7, 16), (7, 32), (7, 48)])
def test_short_window_file_is_the_closed_form(p, q, section):
    # q past the goldens, at a window short enough for the suite
    result = run(RunConfig(p=p, q=q, max_arity=2 * q, f1_mode=section,
                           truncation=7, verify=True))
    assert result.exit_code == 0
    assert _reduced_file(result) == oracle.expected_document(p, q, section, 7)


@pytest.mark.parametrize("section", ["paper", "auto"])
@pytest.mark.parametrize("p,q", SWEEP)
def test_brute_file_is_the_closed_form(p, q, section):
    # which tuples the recursion reaches is the engine's business, so the
    # keys come from the file; every stored value is the closed form's
    doc = json.loads(dump_structure(sweep_run(p, q, "brute-force", section).document))
    header = doc["header"]
    assert header["halting"] == {"status": "complete", "arity": q + 1}
    assert header["mq_sign"] == oracle.closed_form_sign(p, section, q)
    assert doc["verification"]["passed"]
    monos = {b["index"]: (b["eps"], b["ypow"]) for b in doc["basis"]}
    keys = set()
    for entry in doc["products"]:
        key = tuple(monos[i] for i in entry["inputs"])
        (degree, coeff), _ = oracle.expected_entry(p, q, section, key)
        assert (entry["degree"], entry["coords"]) == (degree, [coeff]), key
        keys.add(key)
    for entry in doc["maps"]:
        key = tuple(monos[i] for i in entry["inputs"])
        _, (degree, even, odd) = oracle.expected_entry(p, q, section, key)
        # a brute map lists every position from its base to the window's end
        assert (entry["degree"], entry["period"], entry["base"]) == (degree, 0, degree), key
        assert entry["base"] + len(entry["components"]) == header["truncation"] + 1, key
        for position, comp in enumerate(entry["components"], entry["base"]):
            assert comp == [[odd if position % 2 else even]], (key, position)
        keys.add(key)
    # the y shifts and pure-y slots are exercised, not only the x words
    assert any(j for key in keys for _, j in key)
    assert any(not e for key in keys for e, _ in key)


class TestElementParsing:
    def test_monomials_and_sums(self):
        el = parse_element("2*y^2*x + x", 5)
        assert el.terms == {(1, 2): 2, (1, 0): 1}
        assert parse_element("1", 3).terms == {(0, 0): 1}
        assert parse_element("-x", 3).terms == {(1, 0): 2}
        assert parse_element("y*x", 2).terms == {(1, 1): 1}

    def test_square_of_x_vanishes(self):
        assert parse_element("x^2", 5).is_zero()
        assert parse_element("x*x + y", 5).terms == {(0, 1): 1}

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParameter):
            parse_element("x + z", 5)
        with pytest.raises(InvalidParameter):
            split_query("inverse: x")

    @pytest.mark.parametrize("text,p,terms", [
        ("x", 5, {(1, 0): 1}),
        ("2*y^2*x", 5, {(1, 2): 2}),
        ("y^0", 5, {(0, 0): 1}),
        ("x^2", 5, {}),
        ("-x + y", 5, {(1, 0): 4, (0, 1): 1}),
        ("+x", 5, {(1, 0): 1}),
        ("7*y", 5, {(0, 1): 2}),
        ("5*x", 5, {}),
        ("1", 3, {(0, 0): 1}),
        ("x - x", 3, {}),
    ])
    def test_terms(self, text, p, terms):
        assert parse_element(text, p) == HElement(p, terms)

    def test_bad_factor_raises_every_time(self):
        # the term memo stores results, never errors, and the message names
        # the whole slot text
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidParameter) as info:
                parse_element("x*z", 5)
            messages.append(str(info.value))
        assert messages == ["cannot parse factor 'z' in 'x*z'"] * 2


class TestQueries:
    def test_product_queries(self, golden_run):
        doc = golden_run.document
        assert run_query("product: x,x,x,x", doc) == ["y"]
        assert run_query("product: x,1,x", doc) == ["0"]
        assert run_query("product: y*x, x, x, x", doc) == ["y^2"]
        assert run_query("product: x,x", doc) == ["0"]
        assert run_query("product: x,y", doc) == ["x*y"]

    def test_product_query_matches_brute_mode(self):
        reduced = run(RunConfig(p=3, q=3, max_arity=6, truncation=44)).document
        brute = run(RunConfig(p=3, q=3, max_arity=6, truncation=44,
                              mode="brute-force")).document
        for expr in ["product: x,x,x", "product: y*x,x,x", "product: x,x,x,x",
                     "product: y*x, y*x, x"]:
            assert run_query(expr, reduced) == run_query(expr, brute)

    def test_brute_and_reduced_files_share_basis_products(self):
        # the tables on pure-x inputs are identical record for record
        def basis_products(doc):
            names = {b["index"]: b["name"] for b in doc["basis"]}
            return [e for e in doc["products"]
                    if all(names[i] == "x" for i in e["inputs"])]

        reduced = run(RunConfig(p=3, q=3, max_arity=6, truncation=44)).document
        brute = run(RunConfig(p=3, q=3, max_arity=6, truncation=44,
                              mode="brute-force")).document
        assert basis_products(reduced) == basis_products(brute)

    def test_map_query_period_block(self, golden_run):
        lines = run_query("map: x,x", golden_run.document)
        assert lines[0] == "degree 1"
        assert "period 2" in lines[1]

    def test_map_query_shifted(self, golden_run):
        lines = run_query("map: y*x, x", golden_run.document)
        assert lines[0].startswith("degree 3")

    def test_open_status_blocks_high_arities(self):
        doc = run(RunConfig(p=2, q=4, max_arity=3)).document
        for expr in ("product: x,x,x,x,x", "map: x,x,x,x,x"):
            with pytest.raises(UnresolvableValue):
                run_query(expr, doc)

    def test_map_queries_start_at_arity_two(self, golden_run):
        # f_1 is the representative cocycle, which files do not store
        for expr in ("map: x", "map: y*x", "map: 1"):
            with pytest.raises(InvalidParameter, match="arity 2"):
                run_query(expr, golden_run.document)


class TestDocumentTable:
    @pytest.fixture
    def built(self, monkeypatch):
        """Documents whose query table has been built, one entry per build."""
        tables = []

        class Counting(cli.DocTable):
            def __init__(self, doc):
                tables.append(doc)
                super().__init__(doc)

        monkeypatch.setattr(cli, "DocTable", Counting)
        return tables

    def test_parsed_document_is_keyed_once(self, golden_run, built):
        doc = parse_structure(dump_structure(golden_run.document))
        for _ in range(5):
            assert run_query("product: x,x,x,x", doc) == ["y"]
            assert run_query("map: y*x, x", doc)[0].startswith("degree 3")
        assert built == [doc]

    def test_serialized_document_is_keyed_once(self, built):
        doc = run(RunConfig(p=2, q=4, max_arity=8)).document
        assert isinstance(doc, StructureDocument)
        for _ in range(5):
            assert run_query("product: y*x, x, x, x", doc) == ["y^2"]
        assert built == [doc]

    def test_plain_dict_is_wrapped(self, golden_run, built):
        doc = json.loads(dump_structure(golden_run.document))
        assert run_query("product: x,x,x,x", doc) == ["y"]
        assert run_query("product: x,x,x,x", doc) == ["y"]
        assert len(built) == 2 and all(type(d) is StructureDocument for d in built)

    def test_queried_document_is_freed_without_the_cyclic_gc(self, golden_run):
        # the table keeps the document's entries, not the document, so
        # reference counting alone frees both
        doc = parse_structure(dump_structure(golden_run.document))
        run_query("product: x,x,x,x", doc)
        ref = weakref.ref(doc)
        gc.disable()
        try:
            del doc
            assert ref() is None
        finally:
            gc.enable()


class TestMain:
    def test_run_writes_file_and_queries_it(self, tmp_path, capsys):
        out = tmp_path / "structure.json"
        code = main(["--p", "2", "--q", "4", "--max-arity", "8",
                     "--verify", "--output", str(out)])
        assert code == 0
        assert out.exists()
        capsys.readouterr()
        code = main(["--query", "product: x,x,x,x", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "y"

    def test_auto_file_answers_shifted_map_query(self, tmp_path, capsys):
        # y's cocycle is the identity shift in both sections, so an auto
        # file serves y-multiplied map entries by a degree shift
        out = tmp_path / "structure.json"
        assert main(["--p", "3", "--q", "3", "--f1", "auto", "--verify",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["--query", "map: y*x, x", "--output", str(out)]) == 0
        assert capsys.readouterr().out.startswith("degree 3 (shifted by y^1)")

    @pytest.mark.parametrize("query", ["product: x,,x,x", "product: x,x,x,",
                                       "map: ,x,x"])
    def test_empty_query_entry_exit_one(self, query, tmp_path, capsys):
        # dropping the empty entry answered the arity-3 value, y
        out = tmp_path / "structure.json"
        assert main(["--p", "3", "--q", "3", "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["--query", query, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and "empty tuple entry" in captured.err

    @pytest.mark.parametrize("arity", ["-3", "-1", "0", "1"])
    def test_max_arity_below_two_exit_one(self, arity, capsys):
        # checked before the window, whose default length comes from the arity
        assert main(["--p", "2", "--q", "3", "--max-arity", arity]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: max arity must be at least 2\n")

    def test_invalid_parameters_exit_one(self, capsys):
        assert main(["--p", "2", "--q", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_truncation_too_short_exit_one(self, capsys):
        assert main(["--p", "2", "--q", "4", "--max-arity", "8",
                     "--truncation", "5"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "arity" in err

    def test_out_of_memory_exit_one(self, monkeypatch, capsys):
        # numpy's allocation failure is a MemoryError subclass; here the
        # window-global check matrix is the array that cannot be allocated
        def refuse(algebra, degree):
            raise MemoryError("Unable to allocate 8.11 GiB for an array")

        monkeypatch.setattr(EndomorphismAlgebra, "d_matrix", refuse)
        assert main(["--p", "2", "--q", "4", "--verify"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory (")
        assert "8.11 GiB" in lines[0] and "--truncation" in lines[0]

    def test_undecodable_structure_file_exit_one(self, tmp_path, capsys):
        out = tmp_path / "structure.json"
        out.write_text("not json {")
        assert main(["--query", "product: x,x,x", "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_header_without_p_exit_one(self, tmp_path, capsys, golden_run):
        doc = json.loads(dump_structure(golden_run.document))
        del doc["header"]["p"]
        out = tmp_path / "structure.json"
        out.write_text(json.dumps(doc))
        assert main(["--query", "product: x,x,x", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'p'" in err

    def test_package_runs_as_a_module(self):
        # the package directory comes first, so this is the ainfinity under test
        src = str(Path(cli.__file__).parents[1])
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-m", "ainfinity", "--p", "2", "--q", "4", "--verify"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "verification: pass (15 identities through arity 8)" in proc.stdout.splitlines()

    def test_missing_required_flags(self, capsys):
        assert main(["--query", "product: x,x"]) == 1
        assert "error:" in capsys.readouterr().err

    def _query_bad_file(self, tmp_path, capsys, golden_run, mutate) -> str:
        doc = json.loads(dump_structure(golden_run.document))
        mutate(doc)
        out = tmp_path / "structure.json"
        out.write_text(json.dumps(doc))
        assert main(["--query", "product: x,x,x", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:")
        return captured.err

    def test_empty_halting_exit_one(self, tmp_path, capsys, golden_run):
        def mutate(doc):
            doc["header"]["halting"] = {}
        err = self._query_bad_file(tmp_path, capsys, golden_run, mutate)
        assert "'halting'" in err

    def test_basis_entry_without_eps_exit_one(self, tmp_path, capsys, golden_run):
        def mutate(doc):
            del doc["basis"][1]["eps"]
        err = self._query_bad_file(tmp_path, capsys, golden_run, mutate)
        assert "'basis'" in err and "'eps'" in err

    def test_inputs_outside_basis_exit_one(self, tmp_path, capsys, golden_run):
        def mutate(doc):
            doc["products"][0]["inputs"][0] = len(doc["basis"])
        err = self._query_bad_file(tmp_path, capsys, golden_run, mutate)
        assert "'products'" in err and "'inputs'" in err

    def test_composite_p_exit_one(self, tmp_path, capsys, golden_run):
        def mutate(doc):
            doc["header"]["p"] = 4
        err = self._query_bad_file(tmp_path, capsys, golden_run, mutate)
        assert "'p'" in err

    def test_largest_prime_below_the_bound_verifies(self, capsys):
        assert main(["--p", "65521", "--q", "3", "--truncation", "8", "--verify"]) == 0
        assert "verification: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("p", [65537, 4294967311])
    def test_prime_above_the_bound_exit_one(self, p, capsys):
        # 4294967311 used to overflow int64 silently and fail verification
        assert main(["--p", str(p), "--q", "3", "--truncation", "8", "--verify"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("p", [65537, 10000000000037])
    def test_file_prime_above_the_bound_exit_one(self, p, tmp_path, capsys,
                                                 golden_run, monkeypatch):
        # the bound is checked before primality: no trial division up to sqrt(p)
        tested = []
        monkeypatch.setattr(ff_linalg, "is_prime", lambda n: tested.append(n) or True)

        def mutate(doc):
            doc["header"]["p"] = p
        err = self._query_bad_file(tmp_path, capsys, golden_run, mutate)
        assert "'p'" in err and "65536" in err
        assert tested == []

    @pytest.mark.parametrize("slot", ["9" * 5000 + "*x", "x^" + "9" * 5000,
                                      "y^" + "9" * 5000],
                             ids=["coefficient", "x-exponent", "y-exponent"])
    def test_query_number_too_long_exit_one(self, slot, tmp_path, capsys, golden_run):
        # 5000 digits: more than int() converts by default
        out = tmp_path / "structure.json"
        out.write_text(dump_structure(golden_run.document))
        assert main(["--query", f"product: {slot}, x", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and "digits" in captured.err
        # the message quotes a prefix of the slot, not all 5000 digits
        assert len(captured.err) < 120

    def test_long_query_with_empty_entry_exit_one(self, tmp_path, capsys, golden_run):
        # the message quotes a prefix of the query, not its 3000 entries
        out = tmp_path / "structure.json"
        out.write_text(dump_structure(golden_run.document))
        query = "product: " + ",".join(["x", ""] + ["x"] * 2998)
        assert main(["--query", query, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and "empty tuple entry" in captured.err
        assert len(captured.err) < 120

    def test_file_number_too_long_exit_one(self, tmp_path, capsys, golden_run):
        # json.loads refuses such an integer with a ValueError that is not
        # a JSONDecodeError
        doc = json.loads(dump_structure(golden_run.document))
        doc["header"]["q"] = "LONG"
        out = tmp_path / "structure.json"
        out.write_text(json.dumps(doc).replace('"LONG"', "9" * 5000))
        assert main(["--query", "product: x,x,x", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:")

    def test_long_file_value_is_quoted_bounded(self, tmp_path, capsys, golden_run):
        # the message quotes a prefix of the bad value, not its 5000 entries
        def mutate(doc):
            doc["maps"][0]["period"] = [0] * 5000
        err = self._query_bad_file(tmp_path, capsys, golden_run, mutate)
        assert "'period'" in err
        assert len(err.strip()) < 200 and err.count("\n") == 1

    def test_query_on_a_directory_exit_one(self, tmp_path, capsys):
        assert main(["--query", "product: x,x,x", "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_bytes_exit_one(self, tmp_path, capsys):
        out = tmp_path / "structure.json"
        out.write_bytes(b"\xff\xfe{not text")
        assert main(["--query", "product: x,x,x", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "s.json"
        assert main(["--p", "2", "--q", "4", "--max-arity", "3",
                     "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("p", 4), ("p", "2"), ("p", True), ("q", 2), ("q", 4.0), ("f1", "pinned"),
    ("halting", {"status": "complete"}), ("halting", {"status": "complete", "arity": "5"}),
    ("halting", {"status": "done"}), ("halting", "open"),
])
def test_parse_structure_rejects_bad_header(golden_run, field, value):
    doc = json.loads(dump_structure(golden_run.document))
    doc["header"][field] = value
    with pytest.raises(InvalidParameter, match=repr(field)):
        parse_structure(json.dumps(doc))


@pytest.mark.parametrize("section,field,value", [
    ("basis", "index", "0"), ("basis", "eps", 2), ("basis", "eps", True),
    ("basis", "ypow", -1), ("basis", "index", 7),
    ("products", "inputs", [-1]), ("products", "inputs", 1), ("products", "degree", None),
    ("products", "coords", 1),
    ("maps", "inputs", [0, 99]), ("maps", "period", "2"), ("maps", "base", None),
    ("maps", "components", {}), ("maps", "degree", 1.0),
])
def test_parse_structure_rejects_bad_entry(golden_run, section, field, value):
    doc = json.loads(dump_structure(golden_run.document))
    doc[section][0][field] = value
    with pytest.raises(InvalidParameter, match=repr(section)):
        parse_structure(json.dumps(doc))


@pytest.mark.parametrize("coords", [["2"], [2.7], [True], [-1], [10 ** 30], [[1]]])
def test_query_rejects_bad_product_coords(coords, tmp_path, capsys):
    # serialize_structure writes exactly one integer in [0, p) per product
    doc = json.loads(dump_structure(sweep_run(3, 3, "reduced", "paper").document))
    x = next(b["index"] for b in doc["basis"] if (b["eps"], b["ypow"]) == (1, 0))
    next(e for e in doc["products"] if e["inputs"] == [x, x, x])["coords"] = coords
    out = tmp_path / "structure.json"
    out.write_text(json.dumps(doc))
    assert main(["--query", "product: x,x,x", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and "'coords'" in captured.err


def test_parse_structure_accepts_every_sweep_file():
    for key in GOLDEN_DIGESTS:
        doc = sweep_run(*key).document
        assert parse_structure(dump_structure(doc)) == doc
