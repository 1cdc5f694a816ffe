"""Command-line driver: configure a run, execute, verify, serialize, query.

The structure file is a single JSON document containing integers only
(exact arithmetic needs no floats): a header with the run parameters and
halting state, the monomial listing, the product table, the map table
(period-compressed when certified), and the verification summary.
Records are sorted by arity and then by input indices, so files are
byte-reproducible across runs with the same configuration.

Queries evaluate tuples of ring elements (written over the generators
1, x, y with scalar coefficients, e.g. "product: y*x, x, x, x") by
linear extension from the stored basis values.  A document is keyed
once, on its first query, and reused by every later one; treat it as
read-only once it has been queried.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .endo_dga import EndomorphismAlgebra, HomologyClass
from .errors import AInfinityError, InvalidParameter, UnresolvableValue
from .ff_linalg import PrimeField
from .kadeishvili import (AInfinityRecord, HElement, Monomial, StructureSummary,
                          UNIT, X, linear_product, lookup, monomial_degree,
                          monomial_name, product_value)
from .resolution import build_cyclic_resolution
from .stasheff import verify_structure

FORMAT_NAME = "ainfinity-structure/1"


@dataclass
class RunConfig:
    p: int
    q: int
    max_arity: int
    mode: str = "reduced"          # "reduced" | "brute-force"
    f1_mode: str = "paper"         # "paper" | "auto"
    truncation: int | None = None
    verify: bool = False

    def internal_mode(self) -> str:
        return "brute" if self.mode == "brute-force" else "reduced"

    def resolved_truncation(self) -> int:
        if self.truncation is not None:
            return self.truncation
        return default_truncation(self.max_arity)


def default_truncation(max_arity: int) -> int:
    # Largest generator degree in play is 2 (the polynomial class), so every
    # map reached by arity-n assembly has degree <= 2n; two extra periods
    # keep the window edge away from all homology solves.
    return 2 * (2 * max_arity + 2)


@dataclass
class RunResult:
    record: AInfinityRecord
    summary: StructureSummary
    report: object | None
    document: StructureDocument
    exit_code: int
    lines: list


# ----- element and query parsing -------------------------------------------------

_FACTOR_RE = re.compile(r"^(?:(\d+)|x(?:\^(\d+))?|y(?:\^(\d+))?)$")

# Python may refuse int() and str() of numbers over 640 digits (4300 by
# default); 600 keeps every number a query reads or an answer prints below
_MAX_DIGITS = 600


def _quoted(value) -> str:
    """repr of `value` for an error message, cut after 40 characters: a
    query, or a value in a structure file, can be megabytes long."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


@functools.lru_cache(maxsize=1024)
def _parse_term(term: str) -> tuple[Monomial, int] | None:
    """(monomial, signed integer coefficient) of one term such as
    '-2*y^2*x', or None when it vanishes (x^2 = 0 in the cohomology ring).

    Pure in its text, so memoized: queries repeat the same few terms.  A
    bad factor raises, and lru_cache does not store raised exceptions."""
    sign = 1
    if term.startswith("-"):
        sign = -1
        term = term[1:].strip()
    coeff, e, j = 1, 0, 0
    for factor in term.split("*"):
        factor = factor.strip()
        m = _FACTOR_RE.match(factor)
        if not m:
            raise InvalidParameter(f"cannot parse factor {_quoted(factor)}")
        if m.lastindex and len(m.group(m.lastindex)) > _MAX_DIGITS:
            raise InvalidParameter(f"a number has more than {_MAX_DIGITS} digits")
        if m.group(1) is not None:
            coeff *= int(m.group(1))
        elif factor.startswith("x"):
            e += int(m.group(2)) if m.group(2) else 1
        else:
            j += int(m.group(3)) if m.group(3) else 1
    if e >= 2:
        return None
    return (e, j), sign * coeff


def parse_element(text: str, p: int) -> HElement:
    """Parse a sum of scalar-weighted monomials in x and y."""
    text = text.strip()
    if not text:
        raise InvalidParameter("empty element expression")
    terms = {}
    for chunk in text.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            term = _parse_term(chunk)
        except InvalidParameter as exc:
            raise InvalidParameter(f"{exc} in {_quoted(text)}") from None
        if term is not None:
            mono, coeff = term
            terms[mono] = terms.get(mono, 0) + coeff
    return HElement(p, terms)


def split_query(expr: str) -> tuple[str, list[str]]:
    m = re.match(r"^\s*(product|map)\s*[:(]?\s*(.*?)\s*\)?\s*$", expr, re.S)
    if not m:
        raise InvalidParameter(
            f"cannot parse query {_quoted(expr)}; expected 'product: a,b,...' or "
            "'map: a,b,...'")
    kind, rest = m.group(1), m.group(2)
    if not rest:
        raise InvalidParameter("query needs at least one tuple entry")
    slots = [part.strip() for part in rest.split(",")]
    if not all(slots):
        raise InvalidParameter(f"empty tuple entry in query {_quoted(expr)}")
    return kind, slots


# ----- serialization --------------------------------------------------------------

def _monomial_listing(record: AInfinityRecord) -> list:
    monos = {UNIT, X, (0, 1)}
    for key in list(record.m_table) + list(record.f_table):
        monos.update(key)
    return sorted(monos, key=lambda m: (monomial_degree(m), m[0], m[1]))


def serialize_structure(record: AInfinityRecord, summary: StructureSummary,
                        report, config: RunConfig) -> StructureDocument:
    listing = _monomial_listing(record)
    index = {mono: i for i, mono in enumerate(listing)}
    basis = [{"index": i, "name": monomial_name(m), "eps": m[0], "ypow": m[1],
              "degree": monomial_degree(m)} for i, m in enumerate(listing)]

    products = []
    for key in sorted(record.m_table, key=lambda k: (len(k), [index[m] for m in k])):
        value = record.m_table[key]
        products.append({
            "arity": len(key),
            "inputs": [index[m] for m in key],
            "degree": value.degree,
            "coords": [value.coeff],
        })

    maps = []
    for key in sorted(record.f_table, key=lambda k: (len(k), [index[m] for m in k])):
        value = record.f_table[key]
        arity = len(key)
        cert = record.certificates.get(arity)
        entry = {
            "arity": arity,
            "inputs": [index[m] for m in key],
            "degree": value.degree,
        }
        # each component is stored as its (1, 1, q) block, `AlgebraMap.entries`
        if cert is not None and key in cert.compacts:
            compact = cert.compacts[key]
            entry["period"] = compact.period
            entry["base"] = compact.base
            entry["components"] = [[[b.dense()]] for b in compact.blocks]
        else:
            entry["period"] = 0
            entry["base"] = value.degree
            entry["components"] = [[[value.component(n).dense()]]
                                   for n in value.position_range()]
        maps.append(entry)

    halting = ({"status": "complete", "arity": summary.halted_at}
               if summary.halted_at is not None else {"status": "open"})
    return StructureDocument({
        "format": FORMAT_NAME,
        "header": {
            "p": summary.p,
            "q": summary.q,
            "period": record.algebra.resolution.period,
            "truncation": summary.truncation,
            "mode": config.mode,
            "f1": summary.f1_mode,
            "max_arity": config.max_arity,
            "halting": halting,
            "mq_sign": summary.mq_sign,
        },
        "basis": basis,
        "products": products,
        "maps": maps,
        "verification": ({
            "enabled": True,
            "passed": bool(report.passed),
            "checked": report.checked,
            "max_arity": report.max_arity,
            "first_failure": (str(report.first_failure)
                              if report.first_failure else None),
        } if report is not None else {"enabled": False}),
    })


def dump_structure(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _bad(what: str, value):
    raise InvalidParameter(f"structure file has a missing or bad {what}: {_quoted(value)}")


# the fields the query reader uses on each product and map entry besides
# `inputs`; component numbers themselves are not checked
_ENTRY_FIELDS = {"products": {"degree": int, "coords": list},
                 "maps": {"degree": int, "period": int, "base": int, "components": list}}


def parse_structure(text: str) -> StructureDocument:
    """Parse a structure file; any field the query reader uses that is
    missing or mistyped raises InvalidParameter naming it."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InvalidParameter(f"structure file is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise InvalidParameter(f"not a {FORMAT_NAME} document")
    # JSON numbers decode to exact ints, so `type(v) is int` also rules out
    # true/false and floats
    header = doc.get("header")
    if type(header) is not dict:
        _bad("'header' (not an object)", header)
    p, q, f1, halting = (header.get(k) for k in ("p", "q", "f1", "halting"))
    if type(p) is not int:
        _bad("header 'p' (not an integer)", p)
    try:
        PrimeField(p)
    except InvalidParameter as exc:
        _bad(f"header 'p' ({exc})", p)
    if not (type(q) is int and q >= 3):
        _bad("header 'q' (not an integer >= 3)", q)
    if f1 not in ("paper", "auto"):
        _bad("header 'f1' (not 'paper' or 'auto')", f1)
    status = halting.get("status") if type(halting) is dict else None
    if not (status == "open" or status == "complete" and type(halting.get("arity")) is int):
        _bad("header 'halting' (status 'open', or 'complete' with an arity)", halting)
    basis = doc.get("basis")
    if type(basis) is not list:
        _bad("'basis' (not a list)", type(basis).__name__)
    for b in basis:
        if not (type(b) is dict and type(b.get("index")) is int
                and type(b.get("eps")) is int and b["eps"] in (0, 1)
                and type(b.get("ypow")) is int and b["ypow"] >= 0):
            _bad("'basis' entry (an integer 'index', 'eps' in {0, 1}, 'ypow' >= 0)", b)
    indices = sorted(b["index"] for b in basis)
    if indices != list(range(len(basis))):
        _bad("'basis' index list", indices)
    indices = set(indices)
    for section, fields in _ENTRY_FIELDS.items():
        entries = doc.get(section)
        if type(entries) is not list:
            _bad(f"{section!r} (not a list)", type(entries).__name__)
        for entry in entries:
            if type(entry) is not dict:
                _bad(f"{section!r} entry", entry)
            inputs = entry.get("inputs")
            if not (type(inputs) is list and set(map(type, inputs)) <= {int}
                    and indices.issuperset(inputs)):
                _bad(f"{section!r} entry 'inputs' (indices into the basis)", inputs)
            for field, kind in fields.items():
                if type(entry.get(field)) is not kind:
                    _bad(f"{section!r} entry {field!r} (a {kind.__name__})", entry.get(field))
    # every homology group is one-dimensional, so a product is one coordinate
    for entry in doc["products"]:
        coords = entry["coords"]
        if not (len(coords) == 1 and type(coords[0]) is int and 0 <= coords[0] < p):
            _bad(f"'products' entry 'coords' (one integer in [0, {p}))", coords)
    return StructureDocument(doc)


class DocTable:
    """Query evaluation against a parsed structure file.

    Values are resolved by the engine's own rules (`kadeishvili.lookup`
    and `product_value`) over the entries stored in the document; a file
    stores every value it can give, so its `fill` hook only refuses an
    arity past the computed range of an open file.

    A document is keyed once, by `StructureDocument.table`, and the table
    keeps the document's entries, not the document (so the two form no
    reference cycle).  A document must be treated as read-only once it has
    been queried: the table does not see later edits.
    """

    def __init__(self, doc: dict):
        self.p = doc["header"]["p"]
        self.monos = [(b["eps"], b["ypow"]) for b in
                      sorted(doc["basis"], key=lambda b: b["index"])]
        self.products = {key: HomologyClass(entry["degree"], entry["coords"][0])
                         for key, entry in self._keyed(doc["products"])}
        self.maps = dict(self._keyed(doc["maps"]))
        halting = doc["header"]["halting"]
        self.halted_at = halting.get("arity") if halting["status"] == "complete" else None

    def _keyed(self, entries: list):
        return ((tuple(self.monos[i] for i in entry["inputs"]), entry)
                for entry in entries)

    def _fill(self, key: tuple):
        """`lookup`'s hook: a value the file lacks is past its computed range."""
        core = (X,) * len(key)
        if core not in self.products or core not in self.maps:
            raise UnresolvableValue(
                f"arity {len(key)} is outside the computed range of the file "
                "(status is open)")

    def product(self, key: tuple) -> HomologyClass:
        """m_n on a monic monomial tuple."""
        return product_value(key, self.products, self.halted_at, True, self._fill)

    def map_entry(self, key: tuple) -> tuple[dict, int] | None:
        """(stored entry, extra y-shift) realizing f_n on the tuple, or None
        when the value is zero.  The shift is a plain degree shift because
        y's cocycle is the identity shift, which the record checks in both
        sections before it stores a map."""
        return lookup(key, self.maps, self.halted_at, True, self._fill)


class StructureDocument(dict):
    """A structure file's JSON document, as `serialize_structure` and
    `parse_structure` return it, with its query table built on first use."""

    @functools.cached_property
    def table(self) -> DocTable:
        return DocTable(self)


def format_map_entry(found: tuple[dict, int] | None) -> list:
    if found is None:
        return ["0 (zero map)"]
    entry, shift = found
    degree = entry["degree"] + 2 * shift
    lines = [f"degree {degree}" + (f" (shifted by y^{shift})" if shift else "")]
    if entry["period"]:
        lines.append(f"periodic with period {entry['period']}, base position {entry['base'] + 2 * shift}")
        for i, comp in enumerate(entry["components"]):
            lines.append(f"  position {entry['base'] + 2 * shift + i} (mod {entry['period']}): {comp}")
    else:
        lines.append(f"full component list from position {entry['base'] + 2 * shift}")
        for i, comp in enumerate(entry["components"]):
            lines.append(f"  position {entry['base'] + 2 * shift + i}: {comp}")
    return lines


# ----- run and query drivers -------------------------------------------------------

def run(config: RunConfig) -> RunResult:
    if config.p is None or config.q is None:
        raise InvalidParameter("--p and --q are required to compute a structure")
    resolution = build_cyclic_resolution(config.p, config.q, config.resolved_truncation())
    algebra = EndomorphismAlgebra(resolution, f1_mode=config.f1_mode)
    record = AInfinityRecord(algebra, mode=config.internal_mode())
    summary = record.compute_structure(config.max_arity)
    report = verify_structure(record, config.max_arity) if config.verify else None
    doc = serialize_structure(record, summary, report, config)

    lines = [
        f"A-infinity structure over F_{summary.p}[a]/(a^{summary.q}): "
        f"cohomology ring = exterior(x) (x) k[y], |x|=1, |y|=2",
        f"mode={config.mode} f1={summary.f1_mode} truncation L={summary.truncation} "
        f"arities 2..{max(summary.computed_arities, default=0)}",
        "m_2 = ring product; nonzero higher products on basis tuples:",
    ]
    higher = [(k, v) for k, v in summary.nonzero_products if len(k) > 2]
    if higher:
        for key, value in higher:
            tup = ",".join(monomial_name(m) for m in key)
            lines.append(f"  m_{len(key)}({tup}) = {HElement.from_class(summary.p, value)}")
    else:
        lines.append("  (none)")
    lines.append("nonzero quasi-isomorphism components on basis tuples:")
    if summary.nonzero_map_keys:
        for key in summary.nonzero_map_keys:
            tup = ",".join(monomial_name(m) for m in key)
            value = record.f_table[key]
            block = [repr(value.component(n))
                     for n in range(value.degree, value.degree + 2)]
            lines.append(f"  f_{len(key)}({tup}): degree {value.degree}, "
                         f"components from position {value.degree}: {block} repeating")
    else:
        lines.append("  (none)")
    lines.append(f"halting: {summary.status}")
    if summary.periodic_arities:
        lines.append(
            "periodicity certificates at arities "
            + ",".join(str(a) for a in summary.periodic_arities))
    if report is not None:
        lines.append(str(report))
    exit_code = 0 if (report is None or report.passed) else 1
    return RunResult(record, summary, report, doc, exit_code, lines)


def run_query(expr: str, doc: dict) -> list:
    """Answer lines of a product or map query on a structure document.  The
    document's table is built on its first query and reused after; a plain
    dict is wrapped, and so keyed, on every call."""
    if not isinstance(doc, StructureDocument):
        doc = StructureDocument(doc)
    table = doc.table
    kind, raw_slots = split_query(expr)
    slots = [parse_element(s, table.p) for s in raw_slots]
    if kind == "product":
        return [str(linear_product(slots, table.p, table.product))]
    for s in slots:
        if len(s.terms) != 1 or next(iter(s.terms.values())) != 1:
            raise InvalidParameter(
                "map queries take monic monomial entries (e.g. 'map: y*x, x')")
    if len(slots) == 1:
        raise InvalidParameter(
            "map queries start at arity 2; f_1 is the representative cocycle, "
            "which structure files do not store")
    key = tuple(next(iter(s.terms)) for s in slots)
    return format_map_entry(table.map_entry(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfinity",
        description="Compute the A-infinity structure on the Ext algebra of "
                    "F_p[a]/(a^q), verify it, and serialize or query it.")
    parser.add_argument("--p", type=int, default=None, help="prime characteristic, below 2^16")
    parser.add_argument("--q", type=int, default=None, help="truncation exponent (>= 3)")
    parser.add_argument("--max-arity", type=int, default=None,
                        help="highest arity to compute (default 2q)")
    parser.add_argument("--mode", choices=["reduced", "brute-force"], default="reduced")
    parser.add_argument("--f1", choices=["paper", "auto"], default="paper",
                        help="cycle-choosing section: pinned generators, or the echelon "
                             "section (paper pulled back along x -> -x)")
    parser.add_argument("--truncation", type=int, default=None,
                        help="override the default resolution length")
    parser.add_argument("--verify", action="store_true",
                        help="run the Stasheff identity verifier")
    parser.add_argument("--output", type=str, default=None,
                        help="structure file to write (or to read in query mode)")
    parser.add_argument("--query", type=str, default=None,
                        help="evaluate 'product: ...' or 'map: ...' on a tuple")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.query is not None:
            if args.output and Path(args.output).exists():
                try:
                    text = Path(args.output).read_text()
                except (OSError, UnicodeDecodeError) as exc:
                    raise InvalidParameter(f"cannot read {args.output}: {exc}") from None
                doc = parse_structure(text)
            else:
                if args.p is None or args.q is None:
                    raise InvalidParameter(
                        "query mode needs an existing --output file or --p/--q "
                        "to compute the structure first")
                config = _config_from(args)
                doc = run(config).document
            for line in run_query(args.query, doc):
                print(line)
            return 0
        config = _config_from(args)
        result = run(config)
        for line in result.lines:
            print(line)
        if args.output:
            try:
                Path(args.output).write_text(dump_structure(result.document))
            except OSError as exc:
                raise InvalidParameter(f"cannot write {args.output}: {exc}") from None
            print(f"wrote structure file: {args.output}")
        return result.exit_code
    except AInfinityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}; --truncation sets the window "
              "length, and a shorter window needs less memory", file=sys.stderr)
        return 1


def _config_from(args) -> RunConfig:
    if args.p is None or args.q is None:
        raise InvalidParameter("--p and --q are required")
    max_arity = args.max_arity if args.max_arity is not None else 2 * args.q
    return RunConfig(p=args.p, q=args.q, max_arity=max_arity, mode=args.mode,
                     f1_mode=args.f1, truncation=args.truncation,
                     verify=args.verify)


if __name__ == "__main__":
    sys.exit(main())
